package discovery

import "repro/internal/obs"

// Steal-chunk accounting for the concurrent SeqDis ExtendBatch pool
// (the parallel backend's stealing path keeps its own handles under
// backend="pardis"). Chunks are match.StealMinChunk-grade work units, so a
// clock read per chunk is noise.
var (
	mStealChunks = obs.Default.Counter("gfd_steal_chunks_total", "backend", "seqdis")
	hStealChunk  = obs.Default.Histogram("gfd_steal_chunk_seconds", "backend", "seqdis")
)
