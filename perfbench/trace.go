package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/pattern"
)

// span is one recorded interval at a layer boundary. Times are
// nanoseconds since the recorder's base; Parent is 0 for a root.
type span struct {
	Run     int    `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Level   int    `json:"level"` // pattern level of a backend call; -1 otherwise
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Evaluator call kinds, aggregated instead of recorded as spans: the
// miner makes hundreds of thousands of them per run.
const (
	evViolated = iota
	evSupportXl
	evSupportX
	evCoHolds
	evAttrPresent
	evRelease
	numEvalKinds
)

var evalKindNames = [numEvalKinds]string{"Violated", "SupportXl", "SupportX", "CoHolds", "AttrPresent", "Release"}

// recorder keeps one traced repetition's spans in memory. The miner
// calls its Backend and Evaluators from one goroutine, so the recorder
// needs no locking; its methods are no-ops on a nil recorder, which is
// how untraced set-ups share the code.
type recorder struct {
	run   int
	base  time.Time
	spans []span
	open  []int // IDs of open spans, innermost last

	evalCalls [numEvalKinds]int64
	evalNs    [numEvalKinds]int64

	// The miner's own time between interface calls, per pattern level:
	// the gap before an ExtendBatch belongs to that batch's level (VSpawn
	// candidate generation), every other gap to the level of the last
	// SeedBatch/ExtendBatch (HSpawn, triviality and reduction checks).
	phase     int
	lastEnd   int64
	levelSelf []int64
	levelOf   map[discovery.Handle]int
}

func newRecorder(run int) *recorder {
	return &recorder{run: run, base: time.Now(), levelOf: make(map[discovery.Handle]int)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// start opens a span as a child of the innermost open span and returns
// its ID.
func (r *recorder) start(name string, level int) int {
	if r == nil {
		return 0
	}
	return r.startAt(name, level, r.now())
}

func (r *recorder) startAt(name string, level int, t int64) int {
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name, Level: level, StartNs: t})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.endAt(id, r.now())
}

func (r *recorder) endAt(id int, t int64) {
	r.spans[id-1].EndNs = t
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) duration(id int) time.Duration {
	s := r.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// selfByName sums each span name's self time: its length minus the part
// its children cover.
func (r *recorder) selfByName() map[string]int64 {
	self := make(map[string]int64)
	for _, s := range r.spans {
		self[s.Name] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[r.spans[s.Parent-1].Name] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// durationByLevel sums the lengths of the spans called name per level.
func (r *recorder) durationByLevel(name string) map[int]int64 {
	out := make(map[int]int64)
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Level] += s.EndNs - s.StartNs
		}
	}
	return out
}

func (r *recorder) evalTotalNs() int64 {
	var t int64
	for _, ns := range r.evalNs {
		t += ns
	}
	return t
}

func (r *recorder) evalTotalCalls() int64 {
	var n int64
	for _, c := range r.evalCalls {
		n += c
	}
	return n
}

// charge charges the miner's gap since its previous interface call to
// the current phase and returns the current time.
func (r *recorder) charge() int64 {
	t := r.now()
	for len(r.levelSelf) <= r.phase {
		r.levelSelf = append(r.levelSelf, 0)
	}
	r.levelSelf[r.phase] += t - r.lastEnd
	return t
}

// callSpan opens the span of a Backend call at a pattern level; a batch
// call (SeedBatch, ExtendBatch) starts that level's phase first.
func (r *recorder) callSpan(name string, level int, batch bool) int {
	if batch {
		r.phase = level
	}
	return r.startAt(name, level, r.charge())
}

func (r *recorder) endCall(id int) {
	t := r.now()
	r.endAt(id, t)
	r.lastEnd = t
}

// wrap returns b behind the tracing Backend, starting the per-level
// accounting at the current instant (the miner's entry).
func (r *recorder) wrap(b discovery.Backend) discovery.Backend {
	r.phase, r.lastEnd = 0, r.now()
	return &tracedBackend{b: b, r: r}
}

// finishMine charges the miner's tail after its last interface call.
func (r *recorder) finishMine() { r.charge() }

// writeSpans writes the recorders' spans, and one summary line of the
// aggregated Evaluator calls, to path as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		calls := make(map[string]int64, numEvalKinds)
		ns := make(map[string]int64, numEvalKinds)
		for k := 0; k < numEvalKinds; k++ {
			calls[evalKindNames[k]] = r.evalCalls[k]
			ns[evalKindNames[k]] = r.evalNs[k]
		}
		summary := struct {
			Run       int              `json:"run"`
			EvalCalls map[string]int64 `json:"eval_calls"`
			EvalNs    map[string]int64 `json:"eval_ns"`
			LevelSelf []int64          `json:"level_self_ns"`
		}{r.run, calls, ns, r.levelSelf}
		if err := enc.Encode(summary); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend records a span around every Backend call and wraps the
// Evaluators it hands out.
type tracedBackend struct {
	b discovery.Backend
	r *recorder
}

func (t *tracedBackend) SeedBatch(ps []*pattern.Pattern) []discovery.PatOut {
	sp := t.r.callSpan("match.seed", 0, true)
	out := t.b.SeedBatch(ps)
	for _, o := range out {
		t.r.levelOf[o.H] = 0
	}
	t.r.endCall(sp)
	return out
}

func (t *tracedBackend) ExtendBatch(parents []discovery.Handle, children []*pattern.Pattern) []discovery.PatOut {
	level := t.r.phase + 1
	if len(children) > 0 {
		level = len(children[0].Edges)
	}
	sp := t.r.callSpan("match.extend", level, true)
	out := t.b.ExtendBatch(parents, children)
	for _, o := range out {
		if o.H != nil {
			t.r.levelOf[o.H] = level
		}
	}
	t.r.endCall(sp)
	return out
}

func (t *tracedBackend) Release(h discovery.Handle) {
	sp := t.r.callSpan("match.release", t.r.levelOf[h], false)
	t.b.Release(h)
	delete(t.r.levelOf, h)
	t.r.endCall(sp)
}

func (t *tracedBackend) Evaluate(h discovery.Handle, pool []core.Literal) discovery.Evaluator {
	sp := t.r.callSpan("eval.index", t.r.levelOf[h], false)
	ev := t.b.Evaluate(h, pool)
	t.r.endCall(sp)
	return &tracedEvaluator{ev: ev, r: t.r}
}

func (t *tracedBackend) Constants(h discovery.Handle, nvars int, gamma []string, max int) [][]string {
	sp := t.r.callSpan("eval.constants", t.r.levelOf[h], false)
	out := t.b.Constants(h, nvars, gamma, max)
	t.r.endCall(sp)
	return out
}

// tracedEvaluator counts and times every Evaluator call per kind.
type tracedEvaluator struct {
	ev discovery.Evaluator
	r  *recorder
}

func (e *tracedEvaluator) done(kind int, t0 int64) {
	t := e.r.now()
	e.r.evalCalls[kind]++
	e.r.evalNs[kind] += t - t0
	e.r.lastEnd = t
}

func (e *tracedEvaluator) Violated(x []int, l int) bool {
	t0 := e.r.charge()
	v := e.ev.Violated(x, l)
	e.done(evViolated, t0)
	return v
}

func (e *tracedEvaluator) SupportXl(x []int, l int) int {
	t0 := e.r.charge()
	n := e.ev.SupportXl(x, l)
	e.done(evSupportXl, t0)
	return n
}

func (e *tracedEvaluator) SupportX(x []int) int {
	t0 := e.r.charge()
	n := e.ev.SupportX(x)
	e.done(evSupportX, t0)
	return n
}

func (e *tracedEvaluator) CoHolds(x []int) []bool {
	t0 := e.r.charge()
	v := e.ev.CoHolds(x)
	e.done(evCoHolds, t0)
	return v
}

func (e *tracedEvaluator) AttrPresent(v int, attr string) bool {
	t0 := e.r.charge()
	ok := e.ev.AttrPresent(v, attr)
	e.done(evAttrPresent, t0)
	return ok
}

func (e *tracedEvaluator) Release() {
	t0 := e.r.charge()
	e.ev.Release()
	e.done(evRelease, t0)
}
