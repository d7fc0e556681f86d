package profile

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/metrics"
)

// Runtime metric names read from runtime/metrics. All exist since Go
// 1.22; a name the runtime does not recognize yields KindBad and reads as
// zero, so the handler degrades instead of panicking on toolchain drift.
const (
	rmHeapBytes   = "/memory/classes/heap/objects:bytes"
	rmHeapObjects = "/gc/heap/objects:objects"
	rmGCCycles    = "/gc/cycles/total:gc-cycles"
	rmAllocBytes  = "/gc/heap/allocs:bytes"
)

// RuntimeStatus is the /debug/runtime JSON body: a point-in-time runtime
// snapshot plus the queries currently labeled on live goroutines, read
// fresh per request.
type RuntimeStatus struct {
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	NumCPU        int          `json:"num_cpu"`
	Goroutines    int          `json:"goroutines"`
	HeapBytes     uint64       `json:"heap_bytes"`
	HeapObjects   uint64       `json:"heap_objects"`
	GCCycles      uint64       `json:"gc_cycles"`
	AllocBytes    uint64       `json:"alloc_bytes_total"`
	ActiveQueries []QueryLabel `json:"active_queries"`
}

// ReadRuntimeStatus captures the current runtime status.
func ReadRuntimeStatus() RuntimeStatus {
	samples := []metrics.Sample{
		{Name: rmHeapBytes},
		{Name: rmHeapObjects},
		{Name: rmGCCycles},
		{Name: rmAllocBytes},
	}
	metrics.Read(samples)
	u64 := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	st := RuntimeStatus{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Goroutines:    runtime.NumGoroutine(),
		HeapBytes:     u64(0),
		HeapObjects:   u64(1),
		GCCycles:      u64(2),
		AllocBytes:    u64(3),
		ActiveQueries: ActiveQueryLabels(),
	}
	if st.ActiveQueries == nil {
		st.ActiveQueries = []QueryLabel{}
	}
	return st
}

// Handler serves ReadRuntimeStatus as indented JSON; mount it at
// /debug/runtime next to the net/http/pprof endpoints.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ReadRuntimeStatus()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
