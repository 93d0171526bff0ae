package hac

import (
	"context"

	"hacfs/internal/index"
	"hacfs/internal/obs"
)

// Option configures a volume at construction (NewWith) or one
// evaluation pass (Sync, SyncAll, Reindex). Options passed to a
// constructor become the volume's defaults; options passed to a pass
// override the defaults for that pass only.
type Option func(*config)

// config accumulates both volume-construction settings and per-pass
// evaluation overrides.
type config struct {
	vol  Options
	eval evalConfig
}

// evalConfig is the resolved configuration of one evaluation pass.
type evalConfig struct {
	verify bool
	ctx    context.Context
	// span is the pass's root span (hac.Sync / hac.SyncAll /
	// hac.Reindex); per-directory evaluation spans are its children.
	// nil — as in mutation-triggered consistency passes — disables
	// tracing for the pass.
	span *obs.Span
}

// WithVerify toggles the Glimpse-style second level: every query match
// is confirmed by scanning the file's content (see
// Options.VerifyMatches).
func WithVerify(v bool) Option {
	return func(c *config) {
		c.vol.VerifyMatches = v
		c.eval.verify = v
	}
}

// WithContext attaches a context to an evaluation pass. Remote
// namespace calls issued by the pass are bounded by it (in addition to
// DefaultRemoteTimeout). It has no effect at construction time.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.eval.ctx = ctx }
}

// WithObserver directs the volume's metrics and spans to o
// (construction only). nil selects the process-wide obs.Default();
// obs.Discard() disables recording.
func WithObserver(o *obs.Observer) Option {
	return func(c *config) { c.vol.Observer = o }
}

// WithTransducer registers an attribute transducer for a file
// extension at construction ("" = every file).
func WithTransducer(ext string, t index.Transducer) Option {
	return func(c *config) {
		if c.vol.Transducers == nil {
			c.vol.Transducers = make(map[string][]index.Transducer)
		}
		c.vol.Transducers[ext] = append(c.vol.Transducers[ext], t)
	}
}

// evalCfg resolves one pass's configuration: the volume's settings,
// then the per-call options on top.
func (fs *FS) evalCfg(opts []Option) evalConfig {
	c := config{eval: evalConfig{verify: fs.verify}}
	for _, o := range opts {
		o(&c)
	}
	if c.eval.ctx == nil {
		c.eval.ctx = context.Background()
	}
	return c.eval
}
