package bench

import (
	"fmt"

	"hacfs/internal/andrew"
	"hacfs/internal/hac"
	"hacfs/internal/vfs/cas"
)

// SpaceResult reproduces the in-text space measurements of §4:
// metadata footprint of the same tree under raw UNIX vs under HAC
// (222 KB vs 210 KB, ~5%, in the paper; each side's substrate metadata
// is its encoded manifest) and the per-semantic-directory result bitmap
// (N/8 bytes, ~2 KB at N = 17000). The paper's third row,
// ~16 KB of per-process shared memory for the attribute cache and
// descriptor table, has no counterpart: HAC keeps neither.
type SpaceResult struct {
	UnixMetaBytes int
	HACMetaBytes  int // substrate metadata + HAC structures

	IndexedFiles       int
	BitmapBytesPerDir  int
	SemanticDirs       int
	MetaOverheadPct    float64
	PaperBitmapFormula int // N/8, for the report
}

// Space builds an Andrew tree on both systems, adds a few semantic
// directories on the HAC side, and measures footprints.
func Space(spec andrew.Spec, semDirs int) (SpaceResult, error) {
	var res SpaceResult
	if spec.Dirs <= 0 {
		spec.Dirs = 20 // match andrew.Spec's default
	}

	raw := cas.New(nil)
	if err := andrew.GenerateSource(raw, "/src", spec); err != nil {
		return res, err
	}
	res.UnixMetaBytes = len(raw.Manifest().EncodeBinary())

	under := cas.New(nil)
	fs := hac.New(under, hac.Options{})
	if err := andrew.GenerateSource(fs, "/src", spec); err != nil {
		return res, err
	}
	if _, err := fs.Reindex("/"); err != nil {
		return res, err
	}
	for i := 0; i < semDirs; i++ {
		// Selective queries (one file each) so the measurement captures
		// HAC's structures, not hundreds of materialized symlink nodes.
		q := fmt.Sprintf("au%dx0", i%spec.Dirs)
		if err := fs.SemDir(fmt.Sprintf("/sel%d", i), q); err != nil {
			return res, err
		}
	}
	res.HACMetaBytes = len(under.Manifest().EncodeBinary()) + fs.MetadataBytes()
	res.IndexedFiles = fs.Index().NumDocs()
	res.SemanticDirs = semDirs
	res.BitmapBytesPerDir = (fs.Index().Universe() + 7) / 8
	res.PaperBitmapFormula = res.IndexedFiles / 8
	if res.UnixMetaBytes > 0 {
		res.MetaOverheadPct = 100 * float64(res.HACMetaBytes-res.UnixMetaBytes) / float64(res.UnixMetaBytes)
	}
	return res, nil
}
