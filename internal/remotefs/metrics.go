package remotefs

import "hacfs/internal/wire"

// opNames maps protocol op codes to the label value used in the
// remotefs_rpc_* series.
var opNames = map[opCode]string{
	opMkdir:        "mkdir",
	opMkdirAll:     "mkdirall",
	opOpenFile:     "open",
	opReadFile:     "readfile",
	opWriteFile:    "writefile",
	opSymlink:      "symlink",
	opReadlink:     "readlink",
	opRemove:       "remove",
	opRemoveAll:    "removeall",
	opRename:       "rename",
	opStat:         "stat",
	opLstat:        "lstat",
	opReadDir:      "readdir",
	opFileRead:     "fread",
	opFileWrite:    "fwrite",
	opFileReadAt:   "freadat",
	opFileWriteAt:  "fwriteat",
	opFileSeek:     "fseek",
	opFileTruncate: "ftruncate",
	opFileStat:     "fstat",
	opFileClose:    "fclose",
	opPing:         "ping",
	opSearch:       "search",
	opSync:         "sync",
	opSearchStream: "searchstream",
	opManifest:     "manifest",
	opBlobs:        "blobs",
}

// rfsSpanNames are the server-side span names per op, built once so the
// per-request hot path doesn't re-concatenate them.
var rfsSpanNames = func() map[opCode]string {
	rfs := make(map[opCode]string, len(opNames))
	for op, name := range opNames {
		rfs[op] = "rfs." + name
	}
	return rfs
}()

// methods describes every op to the wire call layer (series
// remotefs_rpc_*{op=...}, client spans rpc.<op>), indexed by op-1. Only
// the semantic ops — search, streamed search, sync — mint a trace of
// their own; everything else joins a trace only when the caller's ctx
// already carries one.
var methods = func() []wire.Method {
	ms := make([]wire.Method, len(opNames))
	for op, name := range opNames {
		ms[op-1] = wire.Method{
			Label: name,
			Span:  "rpc." + name,
			Mint:  op == opSearch || op == opSearchStream || op == opSync,
		}
	}
	return ms
}()
