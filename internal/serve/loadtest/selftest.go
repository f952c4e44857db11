package loadtest

import (
	"fmt"
	"net"
	"net/http"

	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
	"timeprot/internal/serve"
)

// SelfTest boots a real server over a fresh file-backend store in dir,
// listens on a loopback port, and drives two load rounds over the
// wire:
//
//  1. a cold round — clients concurrent submissions of overlapping
//     matrices must execute exactly one cell per distinct key, and the
//     served union report must equal a cold single-process run;
//  2. a warm replay round — the same schedule again must execute zero
//     cells and serve the identical bytes.
//
// logf receives one progress line per round; any invariant violation
// is the returned error.
func SelfTest(dir string, clients, shards int, spec experiment.Spec, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("selftest: opening store: %v", err)
	}
	srv := serve.New(st, serve.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("selftest: listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: serve.ReadHeaderTimeout}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	cold, err := ColdReport(spec)
	if err != nil {
		return fmt.Errorf("selftest: cold baseline: %v", err)
	}
	opt := Options{BaseURL: base, Clients: clients, Shards: shards, Spec: spec}

	res, err := Run(opt)
	if err != nil {
		return fmt.Errorf("selftest: cold round: %v", err)
	}
	if err := Check(res, serve.Stats{}, cold); err != nil {
		return fmt.Errorf("selftest: cold round: %v", err)
	}
	logf("cold round: %d clients, %d submissions of %d cells, %d distinct keys, %d executed, %d store hits, %d joined in flight",
		clients, res.Stats.Jobs, res.Stats.CellsSubmitted, res.Stats.DistinctKeys,
		res.Stats.Executed, res.Stats.StoreHits, res.Stats.Joined)

	before := res.Stats
	warm, err := Run(opt)
	if err != nil {
		return fmt.Errorf("selftest: warm round: %v", err)
	}
	if err := Check(warm, before, cold); err != nil {
		return fmt.Errorf("selftest: warm round: %v", err)
	}
	if warm.Stats.Executed != before.Executed {
		return fmt.Errorf("selftest: warm round executed %d cells; want 0", warm.Stats.Executed-before.Executed)
	}
	logf("warm round: same schedule served entirely from the store (%d hits, 0 executions), report byte-identical",
		warm.Stats.StoreHits-before.StoreHits)
	return nil
}
