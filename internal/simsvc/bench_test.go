package simsvc

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// BenchmarkRunHitFullRegistry measures one POST /run answered from the
// memory cache by a server whose job registry sits at its default bound
// — the steady state of a long-running server, where every new record
// evicts one. The cell is irregular (pagerank builds a CSR graph), so a
// hit path that re-sorts the registry or builds the workload before
// probing the cache shows up in both ns/op and allocs/op.
func BenchmarkRunHitFullRegistry(b *testing.B) {
	pool := NewPool(PoolConfig{Workers: 1})
	defer pool.Close()
	h := NewServer(pool).Handler()
	body := []byte(`{"workload":"pagerank","policy":"ladm","machine":"hier","scale":64}`)
	post := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
	// The first request simulates the cell; the rest fill the registry
	// with finished hits.
	for i := 0; i < DefaultRetainJobs; i++ {
		post()
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
