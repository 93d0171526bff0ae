package depgraph

import "hacfs/internal/obs"

// graphMetrics is the graph's metric handle bundle. Handles are nil
// (no-op) until SetObserver is called.
type graphMetrics struct {
	// recomputes counts topological-order computations (full or
	// affected-subset).
	recomputes *obs.Counter // hac_depgraph_topo_recomputes_total
}

// SetObserver directs the graph's metrics to o. Called by hac.New;
// safe to call again to redirect.
func (g *Graph) SetObserver(o *obs.Observer) {
	r := o.Registry()
	g.mu.Lock()
	g.met = graphMetrics{
		recomputes: r.Counter("hac_depgraph_topo_recomputes_total"),
	}
	g.mu.Unlock()
	if r == nil {
		return
	}
	r.GaugeFunc("hac_depgraph_nodes", func() float64 {
		return float64(g.Len())
	})
}
