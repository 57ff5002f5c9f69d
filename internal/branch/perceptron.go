// Package branch implements the front-end prediction structures of paper
// Table 1: a perceptron direction predictor ("perceptron (4K local, 256
// perceps)"), a 256-entry 4-way branch target buffer, and a 256-entry
// per-thread return address stack.
package branch

// Perceptron predictor (Jiménez & Lin) with local + global history:
// a 4K-entry local history table and 256 perceptrons. Each prediction dots
// the selected perceptron's weights with the branch's local history and the
// thread's global history; training occurs at branch resolution (the
// simulator trains non-speculatively, a common simplification that only
// costs accuracy around in-flight history, not determinism).

const (
	localTableSize = 4096 // "4K local"
	numPerceptrons = 256  // "256 perceps"
	localHistBits  = 10
	globalHistBits = 12
	weightMax      = 127
	weightMin      = -128
)

// historyLen is the total number of weights per perceptron (plus bias).
const historyLen = localHistBits + globalHistBits

// trainingThreshold is Jiménez's theta = floor(1.93*h + 14).
const trainingThreshold = int32((193*historyLen + 1400) / 100)

// Predictor is the shared direction predictor. Tables are shared across
// threads (as in a real SMT fetch engine); global history is per thread.
type Predictor struct {
	weights [numPerceptrons][historyLen + 1]int8 // [.][0] is the bias
	local   [localTableSize]uint16               // per-branch local histories
	global  []uint32                             // per-thread global histories

	stats PredStats
}

// PredStats counts conditional-branch prediction outcomes.
type PredStats struct {
	Lookups     uint64
	Mispredicts uint64
}

// Accuracy returns correct predictions per lookup (1.0 when unused).
func (s PredStats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Lookups)
}

// NewPredictor builds a predictor serving the given number of hardware
// threads.
func NewPredictor(threads int) *Predictor {
	if threads <= 0 {
		panic("branch: predictor needs at least one thread")
	}
	return &Predictor{global: make([]uint32, threads)}
}

// Stats returns accumulated statistics.
func (p *Predictor) Stats() PredStats { return p.stats }

// Threads returns how many threads' global histories the predictor keeps.
func (p *Predictor) Threads() int { return len(p.global) }

// Reset clears all state.
func (p *Predictor) Reset() {
	for i := range p.weights {
		p.weights[i] = [historyLen + 1]int8{}
	}
	for i := range p.local {
		p.local[i] = 0
	}
	for i := range p.global {
		p.global[i] = 0
	}
	p.stats = PredStats{}
}

func localIndex(pc uint64) int {
	return int((pc >> 2) & (localTableSize - 1))
}

func perceptronIndex(pc uint64) int {
	return int(((pc >> 2) ^ (pc >> 10)) & (numPerceptrons - 1))
}

// output computes the perceptron dot product for pc under thread tid's
// history.
func (p *Predictor) output(tid int, pc uint64) int32 {
	w := &p.weights[perceptronIndex(pc)]
	sum := int32(w[0]) // bias
	lh := uint32(p.local[localIndex(pc)])
	gh := p.global[tid]
	// Branchless accumulation: a history bit of 1 adds the weight, 0
	// subtracts it ((w ^ m) - m negates w when m is -1). History bits are
	// near-random, so data-dependent host branches here mispredict
	// constantly; this loop runs twice per simulated conditional.
	for i := 0; i < localHistBits; i++ {
		m := int32(lh>>i&1) - 1
		sum += (int32(w[1+i]) ^ m) - m
	}
	for i := 0; i < globalHistBits; i++ {
		m := int32(gh>>i&1) - 1
		sum += (int32(w[1+localHistBits+i]) ^ m) - m
	}
	return sum
}

// Predict returns the predicted direction of the conditional branch at pc
// for thread tid. It does not modify any state.
func (p *Predictor) Predict(tid int, pc uint64) bool {
	return p.output(tid, pc) >= 0
}

// Resolve trains the predictor with the actual outcome of the conditional
// branch at pc and advances histories, scoring correctness against the
// predictor's own current output. Call once per resolved conditional.
func (p *Predictor) Resolve(tid int, pc uint64, taken bool) (correct bool) {
	sum := p.output(tid, pc)
	return p.train(tid, pc, taken, sum >= 0, sum)
}

// ResolveWith trains like Resolve but scores correctness against an
// externally recorded prediction — the one fetch actually acted on, which
// may differ from the current output when intervening branches trained the
// same perceptron between fetch and resolve.
func (p *Predictor) ResolveWith(tid int, pc uint64, taken, predicted bool) (correct bool) {
	return p.train(tid, pc, taken, predicted, p.output(tid, pc))
}

// train scores predicted against taken, trains the perceptron at pc whose
// current output is sum, and advances the histories.
func (p *Predictor) train(tid int, pc uint64, taken, predicted bool, sum int32) (correct bool) {
	correct = predicted == taken
	p.stats.Lookups++
	if !correct {
		p.stats.Mispredicts++
	}

	// Perceptron training rule: train when the perceptron's own output
	// disagrees with the outcome or lacks confidence.
	if (sum >= 0) != taken || abs32(sum) <= trainingThreshold {
		w := &p.weights[perceptronIndex(pc)]
		t := int8(-1)
		if taken {
			t = 1
		}
		w[0] = clampAdd(w[0], t)
		lh := uint32(p.local[localIndex(pc)])
		gh := p.global[tid]
		for i := 0; i < localHistBits; i++ {
			x := int8(-1)
			if lh&(1<<i) != 0 {
				x = 1
			}
			w[1+i] = clampAdd(w[1+i], t*x)
		}
		for i := 0; i < globalHistBits; i++ {
			x := int8(-1)
			if gh&(1<<i) != 0 {
				x = 1
			}
			w[1+localHistBits+i] = clampAdd(w[1+localHistBits+i], t*x)
		}
	}

	// Advance histories.
	bit := uint32(0)
	if taken {
		bit = 1
	}
	li := localIndex(pc)
	p.local[li] = (p.local[li]<<1 | uint16(bit)) & (1<<localHistBits - 1)
	p.global[tid] = (p.global[tid]<<1 | bit) & (1<<globalHistBits - 1)
	return correct
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func clampAdd(w, d int8) int8 {
	v := int16(w) + int16(d)
	if v > weightMax {
		return weightMax
	}
	if v < weightMin {
		return weightMin
	}
	return int8(v)
}
