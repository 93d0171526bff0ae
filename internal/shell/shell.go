// Package shell implements the interactive command interpreter behind
// cmd/hacsh. It exposes the paper's command suite — the ordinary
// hierarchical commands (cd, ls, mkdir, mv, rm, cat, ...) and the
// semantic extensions (smkdir, squery, slinks, ssync, sreindex, smount,
// sact, search) — over a HAC volume.
package shell

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hacfs/internal/catalog"
	"hacfs/internal/hac"
	"hacfs/internal/remote"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Shell interprets commands against one HAC volume. It is not safe for
// concurrent use.
type Shell struct {
	fs  *hac.FS
	cwd string
	out io.Writer
	// quit is set by the exit command.
	quit bool
	// snaps holds named snapshots of a content-addressed substrate.
	// They reference the blob store, not a substrate instance, so they
	// survive clone switches (the clone shares the store).
	snaps map[string]*cas.Snap
}

// New returns a shell over the given volume, writing output to out.
func New(fs *hac.FS, out io.Writer) *Shell {
	return &Shell{fs: fs, cwd: "/", out: out, snaps: make(map[string]*cas.Snap)}
}

// FS returns the underlying volume.
func (sh *Shell) FS() *hac.FS { return sh.fs }

// Cwd returns the current working directory.
func (sh *Shell) Cwd() string { return sh.cwd }

// Quit reports whether the exit command has been issued.
func (sh *Shell) Quit() bool { return sh.quit }

// abs resolves an operand against the working directory.
func (sh *Shell) abs(p string) string {
	if p == "" {
		return sh.cwd
	}
	if vfs.IsAbs(p) {
		return vfs.Join(p)
	}
	return vfs.Join(sh.cwd, p)
}

func (sh *Shell) printf(format string, args ...interface{}) {
	fmt.Fprintf(sh.out, format, args...)
}

// Run reads commands from r until EOF or exit, printing a prompt to the
// output writer when prompt is true.
func (sh *Shell) Run(r io.Reader, prompt bool) error {
	lines := newLineReader(r)
	for !sh.quit {
		if prompt {
			sh.printf("hac:%s> ", sh.cwd)
		}
		line, err := lines.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sh.Exec(line); err != nil {
			sh.printf("error: %v\n", err)
		}
	}
	return nil
}

// Exec runs a single command line.
func (sh *Shell) Exec(line string) error {
	args, err := splitArgs(line)
	if err != nil {
		return err
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "#") {
		return nil
	}
	cmd, rest := args[0], args[1:]
	fn, ok := sh.commands()[cmd]
	if !ok {
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return fn(rest)
}

type command func(args []string) error

func (sh *Shell) commands() map[string]command {
	return map[string]command{
		"help":     sh.cmdHelp,
		"exit":     sh.cmdExit,
		"quit":     sh.cmdExit,
		"pwd":      sh.cmdPwd,
		"cd":       sh.cmdCd,
		"ls":       sh.cmdLs,
		"tree":     sh.cmdTree,
		"cat":      sh.cmdCat,
		"write":    sh.cmdWrite,
		"mkdir":    sh.cmdMkdir,
		"rm":       sh.cmdRm,
		"rmdir":    sh.cmdRm,
		"mv":       sh.cmdMv,
		"ln":       sh.cmdLn,
		"stat":     sh.cmdStat,
		"smkdir":   sh.cmdSmkdir,
		"squery":   sh.cmdSquery,
		"slinks":   sh.cmdSlinks,
		"ssync":    sh.cmdSsync,
		"sreindex": sh.cmdSreindex,
		"smount":   sh.cmdSmount,
		"sumount":  sh.cmdSumount,
		"sact":     sh.cmdSact,
		"search":   sh.cmdSearch,
		"explain":  sh.cmdExplain,
		"sstat":    sh.cmdSstat,
		"stats":    sh.cmdStats,
		"slow":     sh.cmdSlow,
		"save":     sh.cmdSave,
		"load":     sh.cmdLoad,
		"mount":    sh.cmdMount,
		"umount":   sh.cmdUmount,
		"spublish": sh.cmdSpublish,
		"scatalog": sh.cmdScatalog,
		"ssimilar": sh.cmdSsimilar,
		"snapshot": sh.cmdSnapshot,
		"rollback": sh.cmdRollback,
		"clone":    sh.cmdClone,
	}
}

// casFS unwraps the volume's substrate layering down to a
// content-addressed file system, which the snapshot family requires.
func (sh *Shell) casFS() (*cas.FS, error) {
	fsys := sh.fs.Under()
	for {
		if c, ok := fsys.(*cas.FS); ok {
			return c, nil
		}
		u, ok := fsys.(interface{ Under() vfs.FileSystem })
		if !ok {
			return nil, fmt.Errorf("volume substrate is not content-addressed (run hacsh with -cas)")
		}
		fsys = u.Under()
	}
}

// cmdSnapshot seals the current volume state under a name (O(1): the
// tree is shared with the live overlay, not copied), or lists the
// snapshots taken so far.
func (sh *Shell) cmdSnapshot(args []string) error {
	cfs, err := sh.casFS()
	if err != nil {
		return err
	}
	if len(args) > 1 {
		return fmt.Errorf("usage: snapshot [name]")
	}
	if len(args) == 0 {
		if len(sh.snaps) == 0 {
			sh.printf("no snapshots (take one with snapshot <name>)\n")
			return nil
		}
		names := make([]string, 0, len(sh.snaps))
		for name := range sh.snaps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sh.printf("%-20s taken %s\n", name, sh.snaps[name].Taken().Format("2006-01-02 15:04:05"))
		}
		return nil
	}
	name := args[0]
	if _, dup := sh.snaps[name]; dup {
		return fmt.Errorf("snapshot %q already exists", name)
	}
	sh.snaps[name] = cfs.Snapshot()
	st := cfs.Store()
	sh.printf("snapshot %s sealed (%d blobs, %dB unique)\n", name, st.Blobs(), st.UniqueBytes())
	return nil
}

// cmdRollback rewinds the volume to a named snapshot and reindexes so
// the semantic layer settles over the rewound tree.
func (sh *Shell) cmdRollback(args []string) error {
	cfs, err := sh.casFS()
	if err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: rollback <snapshot>")
	}
	snap, ok := sh.snaps[args[0]]
	if !ok {
		return fmt.Errorf("no snapshot %q (take one with snapshot <name>)", args[0])
	}
	if err := cfs.Restore(snap); err != nil {
		return err
	}
	if _, err := sh.fs.Reindex("/"); err != nil {
		return err
	}
	sh.cwd = "/"
	sh.printf("rolled back to %s\n", args[0])
	return nil
}

// cmdClone forks the volume copy-on-write and switches the shell onto
// the fork: the original state is sealed (still reachable through
// snapshots sharing the store), and divergence costs only the paths
// actually rewritten.
func (sh *Shell) cmdClone(args []string) error {
	cfs, err := sh.casFS()
	if err != nil {
		return err
	}
	if len(args) != 0 {
		return fmt.Errorf("usage: clone")
	}
	fork := hac.New(cfs.Clone(), hac.Options{Observer: sh.fs.Observer()})
	if _, err := fork.Reindex("/"); err != nil {
		return err
	}
	sh.fs = fork
	sh.cwd = "/"
	sh.printf("switched to a copy-on-write clone of the volume\n")
	return nil
}

// cmdSpublish publishes this volume's semantic directories to a
// catalog server (haccatd).
func (sh *Shell) cmdSpublish(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: spublish <user> <host:port>")
	}
	c := catalog.Dial(args[1])
	defer c.Close()
	n, err := c.Publish(args[0], sh.fs)
	if err != nil {
		return err
	}
	sh.printf("published %d semantic directories as %s\n", n, args[0])
	return nil
}

// cmdScatalog searches the central catalog.
func (sh *Shell) cmdScatalog(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: scatalog <host:port> <query...>")
	}
	c := catalog.Dial(args[0])
	defer c.Close()
	hits, err := c.Search(strings.Join(args[1:], " "))
	if err != nil {
		return err
	}
	for _, h := range hits {
		sh.printf("%-12s %-24s %s (%d results)\n", h.User, h.Path, h.Query, len(h.Targets))
	}
	sh.printf("%d entr%s\n", len(hits), plural(len(hits), "y", "ies"))
	return nil
}

// cmdSsimilar finds classifications similar to one published entry.
func (sh *Shell) cmdSsimilar(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: ssimilar <host:port> <user> <dir>")
	}
	c := catalog.Dial(args[0])
	defer c.Close()
	matches, err := c.SimilarTo(args[1], args[2])
	if err != nil {
		return err
	}
	for _, m := range matches {
		sh.printf("%-12s %-24s %.0f%% overlap\n", m.Entry.User, m.Entry.Path, 100*m.Similarity)
	}
	if len(matches) == 0 {
		sh.printf("no similar classifications\n")
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// mounter is the substrate surface behind the mount/umount builtins;
// both MemFS and the content-addressed substrate provide it.
type mounter interface {
	Mount(p string, m vfs.FileSystem) error
	Unmount(p string) error
}

// cmdMount syntactically mounts a remote volume served by hacvold.
func (sh *Shell) cmdMount(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: mount <dir> <host:port>")
	}
	sub, ok := sh.fs.Under().(mounter)
	if !ok {
		return fmt.Errorf("mount: volume substrate does not support mounts")
	}
	client := remotefs.DialMux(args[1])
	if err := client.Ping(); err != nil {
		return fmt.Errorf("cannot reach %s: %w", args[1], err)
	}
	return sub.Mount(sh.abs(args[0]), client)
}

// cmdUmount detaches a syntactic mount.
func (sh *Shell) cmdUmount(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: umount <dir>")
	}
	sub, ok := sh.fs.Under().(mounter)
	if !ok {
		return fmt.Errorf("umount: volume substrate does not support mounts")
	}
	return sub.Unmount(sh.abs(args[0]))
}

func (sh *Shell) cmdSave(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: save <host-file>")
	}
	// Atomic replace (write temp, fsync, rename): a crash mid-save
	// never leaves a torn image under the target name.
	if err := sh.fs.SaveVolumeFile(args[0]); err != nil {
		return err
	}
	sh.printf("volume saved to %s\n", args[0])
	return nil
}

func (sh *Shell) cmdLoad(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: load <host-file>")
	}
	fs, err := hac.LoadVolumeFile(args[0], hac.Options{})
	if err != nil {
		return err
	}
	sh.fs = fs
	sh.cwd = "/"
	sh.printf("volume loaded from %s\n", args[0])
	return nil
}

var helpText = `hierarchical commands:
  pwd                         print working directory
  cd [dir]                    change directory
  ls [dir]                    list directory (semantic dirs marked *)
  tree [dir]                  recursive listing
  cat <file>                  print file contents
  write <file> <text...>      create/overwrite file with text
  mkdir <dir>                 create directory
  rm <path>                   remove file, link or empty directory
  mv <old> <new>              rename/move
  ln <target> <link>          create symbolic link
  stat <path>                 show metadata

semantic commands (the paper's extensions):
  smkdir <dir> <query...>     create semantic directory
  squery <dir> [query...]     show or replace a directory's query
  slinks <dir>                show classified links
  ssync [dir]                 restore scope consistency from dir down
  sreindex [dir]              re-index files, settle all consistency
  smount <dir> <name> <addr>  semantically mount remote query system
  sumount <dir> <name>        detach a mounted namespace
  sact <link>                 print content behind a link (local/remote)
  search <scope> <query...>   evaluate a query without creating a dir
  explain <scope> <query...>  show the cost-based evaluation plan
  explain <semdir>            show the plan behind a directory's links
  sstat                       show HAC layer statistics
  stats [prefix]              dump live observability metrics
  slow                        show recent over-threshold operations

  spublish <user> <addr>      publish semantic dirs to a catalog (haccatd)
  scatalog <addr> <query...>  search the central catalog
  ssimilar <addr> <user> <dir> find similar published classifications
  mount <dir> <host:port>     syntactically mount a remote volume (hacvold)
  umount <dir>                detach a syntactic mount
  save <host-file>            persist the volume to a file on the host
  load <host-file>            replace the volume with a saved one

content-addressed volumes (hacsh -cas):
  snapshot [name]             seal an O(1) named snapshot (no name: list)
  rollback <snapshot>         rewind the volume to a snapshot
  clone                       fork the volume copy-on-write and switch to it
  exit | quit                 leave the shell
`

func (sh *Shell) cmdHelp([]string) error {
	sh.printf("%s", helpText)
	return nil
}

func (sh *Shell) cmdExit([]string) error {
	sh.quit = true
	return nil
}

func (sh *Shell) cmdPwd([]string) error {
	sh.printf("%s\n", sh.cwd)
	return nil
}

func (sh *Shell) cmdCd(args []string) error {
	target := "/"
	if len(args) > 0 {
		target = sh.abs(args[0])
	}
	info, err := sh.fs.Stat(target)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return fmt.Errorf("%s: not a directory", target)
	}
	sh.cwd = target
	return nil
}

func (sh *Shell) cmdLs(args []string) error {
	dir := sh.cwd
	if len(args) > 0 {
		dir = sh.abs(args[0])
	}
	// Wildcards list the matching paths instead of a directory.
	if strings.ContainsAny(dir, "*?[") {
		matches, err := vfs.Glob(sh.fs, dir)
		if err != nil {
			return err
		}
		for _, m := range matches {
			info, err := sh.fs.Lstat(m)
			if err != nil {
				continue
			}
			sh.printf("%s\n", sh.describeEntry(vfs.Dir(m), vfs.DirEntry{
				Name: vfs.Base(m), Type: info.Type, Ino: info.Ino,
			}))
		}
		return nil
	}
	entries, err := sh.fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		sh.printf("%s\n", sh.describeEntry(dir, e))
	}
	return nil
}

func (sh *Shell) describeEntry(dir string, e vfs.DirEntry) string {
	full := vfs.Join(dir, e.Name)
	switch e.Type {
	case vfs.TypeDir:
		if sh.fs.IsSemantic(full) {
			return e.Name + "/*"
		}
		return e.Name + "/"
	case vfs.TypeSymlink:
		target, err := sh.fs.Readlink(full)
		if err != nil {
			return e.Name + " -> ?"
		}
		return e.Name + " -> " + target
	default:
		return e.Name
	}
}

func (sh *Shell) cmdTree(args []string) error {
	root := sh.cwd
	if len(args) > 0 {
		root = sh.abs(args[0])
	}
	return vfs.Walk(sh.fs, root, func(p string, info vfs.Info) error {
		depth := strings.Count(strings.TrimPrefix(p, root), "/")
		indent := strings.Repeat("  ", depth)
		name := vfs.Base(p)
		if p == root {
			name = p
		}
		switch info.Type {
		case vfs.TypeDir:
			mark := "/"
			if sh.fs.IsSemantic(p) {
				mark = "/*"
			}
			sh.printf("%s%s%s\n", indent, name, mark)
		case vfs.TypeSymlink:
			sh.printf("%s%s -> %s\n", indent, name, info.Target)
		default:
			sh.printf("%s%s (%dB)\n", indent, name, info.Size)
		}
		return nil
	})
}

func (sh *Shell) cmdCat(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cat <file>")
	}
	data, err := sh.fs.ReadFile(sh.abs(args[0]))
	if err != nil {
		return err
	}
	sh.printf("%s", data)
	if len(data) > 0 && data[len(data)-1] != '\n' {
		sh.printf("\n")
	}
	return nil
}

func (sh *Shell) cmdWrite(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: write <file> <text...>")
	}
	return sh.fs.WriteFile(sh.abs(args[0]), []byte(strings.Join(args[1:], " ")+"\n"))
}

func (sh *Shell) cmdMkdir(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mkdir <dir>")
	}
	return sh.fs.MkdirAll(sh.abs(args[0]))
}

func (sh *Shell) cmdRm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: rm <path>")
	}
	return sh.fs.Remove(sh.abs(args[0]))
}

func (sh *Shell) cmdMv(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: mv <old> <new>")
	}
	return sh.fs.Rename(sh.abs(args[0]), sh.abs(args[1]))
}

func (sh *Shell) cmdLn(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: ln <target> <link>")
	}
	target := args[0]
	if vfs.IsAbs(target) {
		target = vfs.Join(target)
	} else if !hac.IsRemoteTarget(target) {
		target = sh.abs(target)
	}
	return sh.fs.Symlink(target, sh.abs(args[1]))
}

func (sh *Shell) cmdStat(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: stat <path>")
	}
	p := sh.abs(args[0])
	info, err := sh.fs.Lstat(p)
	if err != nil {
		return err
	}
	sh.printf("path:  %s\ntype:  %s\nsize:  %d\nmtime: %s\n",
		p, info.Type, info.Size, info.ModTime.Format("2006-01-02 15:04:05"))
	if info.Type == vfs.TypeSymlink {
		sh.printf("target: %s\n", info.Target)
	}
	if sh.fs.IsSemantic(p) {
		q, _ := sh.fs.QueryDisplay(p)
		sh.printf("query: %s\n", q)
	}
	return nil
}

func (sh *Shell) cmdSmkdir(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: smkdir <dir> [query...]")
	}
	// Like mkdir, smkdir refuses an existing path; SemDir alone would
	// convert an existing directory in place.
	p := sh.abs(args[0])
	if _, err := sh.fs.Lstat(p); err == nil {
		return &vfs.PathError{Op: "smkdir", Path: p, Err: vfs.ErrExist}
	}
	return sh.fs.SemDir(p, strings.Join(args[1:], " "))
}

func (sh *Shell) cmdSquery(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: squery <dir> [new query...]")
	}
	dir := sh.abs(args[0])
	if len(args) == 1 {
		q, err := sh.fs.QueryDisplay(dir)
		if err != nil {
			return err
		}
		sh.printf("%s\n", q)
		return nil
	}
	return sh.fs.SetQuery(dir, strings.Join(args[1:], " "))
}

func (sh *Shell) cmdSlinks(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: slinks <dir>")
	}
	links, err := sh.fs.Links(sh.abs(args[0]))
	if err != nil {
		return err
	}
	for _, l := range links {
		name := l.Name
		if name == "" {
			name = "-"
		}
		sh.printf("%-10s %-20s %s\n", l.Class, name, l.Target)
	}
	return nil
}

func (sh *Shell) cmdSsync(args []string) error {
	dir := "/"
	if len(args) > 0 {
		dir = sh.abs(args[0])
	}
	return sh.fs.Sync(dir)
}

func (sh *Shell) cmdSreindex(args []string) error {
	root := "/"
	if len(args) > 0 {
		root = sh.abs(args[0])
	}
	rep, err := sh.fs.Reindex(root)
	if err != nil {
		return err
	}
	sh.printf("indexed: %d added, %d updated, %d removed (%d documents)\n",
		rep.Added, rep.Updated, rep.Removed, sh.fs.Index().NumDocs())
	return nil
}

func (sh *Shell) cmdSmount(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: smount <dir> <name> <host:port>")
	}
	client := remote.DialBin(args[1], args[2])
	if err := client.Ping(); err != nil {
		return fmt.Errorf("cannot reach %s: %w", args[2], err)
	}
	return sh.fs.SemanticMount(sh.abs(args[0]), client)
}

func (sh *Shell) cmdSumount(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: sumount <dir> <name>")
	}
	return sh.fs.SemanticUnmount(sh.abs(args[0]), args[1])
}

func (sh *Shell) cmdSact(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: sact <link>")
	}
	data, err := sh.fs.Extract(sh.abs(args[0]))
	if err != nil {
		return err
	}
	sh.printf("%s", data)
	if len(data) > 0 && data[len(data)-1] != '\n' {
		sh.printf("\n")
	}
	return nil
}

func (sh *Shell) cmdSearch(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: search <scope-dir> <query...>")
	}
	res, err := sh.fs.Search(context.Background(), strings.Join(args[1:], " "),
		hac.WithScope(sh.abs(args[0])))
	if err != nil {
		return err
	}
	results := res.All()
	sort.Strings(results)
	for _, p := range results {
		sh.printf("%s\n", p)
	}
	if res.Stats().Cached {
		sh.printf("%d match(es) (cached)\n", len(results))
	} else {
		sh.printf("%d match(es)\n", len(results))
	}
	return nil
}

// cmdExplain runs a query through the cost-based planner and prints the
// evaluation plan with per-node selectivity estimates. With a semantic
// directory and no query it explains the directory's own stored query
// under the scope its parent provides: the plan behind its links.
func (sh *Shell) cmdExplain(args []string) error {
	if len(args) == 1 {
		p, err := sh.fs.ExplainDir(sh.abs(args[0]))
		if err != nil {
			return err
		}
		if p == nil {
			sh.printf("empty query\n")
			return nil
		}
		sh.printf("%s", p.Explain())
		return nil
	}
	if len(args) < 2 {
		return fmt.Errorf("usage: explain <scope-dir> <query...> | explain <semantic-dir>")
	}
	res, err := sh.fs.Search(context.Background(), strings.Join(args[1:], " "),
		hac.WithScope(sh.abs(args[0])))
	if err != nil {
		return err
	}
	sh.printf("%s", res.Explain())
	st := res.Stats()
	sh.printf("matches: %d  cached: %v  leaves: %d  postings skipped: %d\n",
		st.Matches, st.Cached, st.Leaves, st.PostingsSkipped)
	return nil
}

func (sh *Shell) cmdSstat([]string) error {
	s := sh.fs.Stats()
	ixStats := sh.fs.Index().Stats()
	sh.printf("directories:     %d (%d semantic)\n", s.Directories, s.SemanticDirs)
	sh.printf("indexed files:   %d (%d terms)\n", ixStats.Docs, ixStats.Terms)
	sh.printf("index size:      %d KB\n", ixStats.IndexBytes/1024)
	sh.printf("scope sets:      %d KB\n", ixStats.DirsBytes/1024)
	sh.printf("hac metadata:    %d KB\n", sh.fs.MetadataBytes()/1024)
	sh.printf("attr cache:      %d hits / %d misses\n", s.AttrHits, s.AttrMisses)
	mounts := sh.fs.SemanticMounts()
	if len(mounts) > 0 {
		var points []string
		for p := range mounts {
			points = append(points, p)
		}
		sort.Strings(points)
		for _, p := range points {
			sh.printf("semantic mount:  %s -> %s\n", p, strings.Join(mounts[p], ", "))
		}
	}
	return nil
}

// cmdStats dumps the volume's metric registry, optionally filtered by a
// series-name prefix (e.g. "stats hac_sync").
func (sh *Shell) cmdStats(args []string) error {
	reg := sh.fs.Observer().Registry()
	if reg == nil {
		sh.printf("metrics disabled (volume opened with a discard observer)\n")
		return nil
	}
	prefix := ""
	if len(args) > 0 {
		prefix = args[0]
	}
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sh.printf("%-56s %g\n", name, snap[name])
	}
	sh.printf("%d series\n", len(names))
	return nil
}

// cmdSlow lists the observer's slow-op ring: operations that crossed
// the slow threshold, oldest first, with the captured query plan for
// slow searches.
func (sh *Shell) cmdSlow(args []string) error {
	slow := sh.fs.Observer().Slow()
	ops := slow.Recent()
	if len(ops) == 0 {
		sh.printf("no slow operations recorded (threshold %s, %d total)\n",
			slow.Threshold(), slow.Total())
		return nil
	}
	for _, op := range ops {
		line := fmt.Sprintf("%s  %-12s %8.1fms", op.Time.Format("15:04:05"), op.Op,
			float64(op.Dur)/float64(time.Millisecond))
		if op.Tenant != "" {
			line += "  tenant=" + op.Tenant
		}
		if !op.Trace.IsZero() {
			line += "  trace=" + op.Trace.String()
		}
		if op.Arg != "" {
			line += "  " + op.Arg
		}
		if op.Err != "" {
			line += "  err=" + op.Err
		}
		sh.printf("%s\n", line)
		if op.Detail != "" {
			for _, dl := range strings.Split(strings.TrimRight(op.Detail, "\n"), "\n") {
				sh.printf("    %s\n", dl)
			}
		}
	}
	sh.printf("%d of %d slow op%s retained\n", len(ops), slow.Total(), plural(int(slow.Total()), "", "s"))
	return nil
}
