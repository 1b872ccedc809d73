package pagefile

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjectedFault is the default error produced by an Injector rule when
// it fires.
var ErrInjectedFault = errors.New("pagefile: injected fault")

// FaultOp names one class of physical operation an Injector can fail. The
// page ops fire inside FileStorage (SetInjector); the WAL ops fire inside
// the database's WAL-file wrapper.
type FaultOp int

const (
	// OpPageWrite is a data-file page pwrite.
	OpPageWrite FaultOp = iota
	// OpPageRead is a data-file page pread.
	OpPageRead
	// OpDataSync is a data-file fsync (checkpoint write-back or superblock).
	OpDataSync
	// OpWALWrite is a WAL append write.
	OpWALWrite
	// OpWALSync is a WAL commit fsync — the classic transient-fault site:
	// failing one of these poisons the handle without losing any
	// acknowledged data.
	OpWALSync
	numFaultOps
)

var faultOpNames = map[string]FaultOp{
	"page-write": OpPageWrite,
	"page-read":  OpPageRead,
	"data-sync":  OpDataSync,
	"wal-write":  OpWALWrite,
	"wal-sync":   OpWALSync,
}

// String returns the spec-syntax name of the op.
func (op FaultOp) String() string {
	for name, o := range faultOpNames {
		if o == op {
			return name
		}
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// FaultRule describes one programmed fault: which operation class to fail,
// when the fault window opens, how long it stays open, and how the failure
// presents.
type FaultRule struct {
	// Op selects the operation class the rule matches.
	Op FaultOp
	// After is the number of matching operations that succeed before the
	// rule starts firing (the fault window opens at operation After+1).
	After int64
	// Count is the number of operations the rule fails once open; 0 means
	// the fault is permanent (every later matching operation fails).
	Count int64
	// Err is the injected error; nil selects ErrInjectedFault. Use
	// syscall.ENOSPC for out-of-space simulation.
	Err error
	// Torn, for write ops, is the number of bytes of the operation that
	// reach the file before the failure — a torn write. Zero fails the
	// write without touching the file.
	Torn int
	// Latency is added to every matching operation (fired or not) while the
	// rule is installed, simulating a slow device.
	Latency time.Duration
}

// Injection is the outcome of a tripped rule, handed to the instrumented
// operation.
type Injection struct {
	// Err is the error the operation must return.
	Err error
	// Torn is how many bytes of a write to apply before failing (0 = none).
	Torn int
}

type ruleState struct {
	rule  FaultRule
	seen  int64 // matching ops observed
	fired int64 // faults injected
}

// Injector is a programmable fault injector shared by the data file and the
// WAL wrapper of one database handle. Rules are checked in installation
// order; the first rule that fires wins. All methods are safe for
// concurrent use. The zero value is unusable; use NewInjector.
type Injector struct {
	mu    sync.Mutex
	rules []*ruleState
	// counts observes traffic per op class whether or not any rule matches,
	// so tests and the chaos harness can aim After windows.
	counts   [numFaultOps]atomic.Int64
	injected [numFaultOps]atomic.Int64
}

// NewInjector returns an injector with the given rules installed.
func NewInjector(rules ...FaultRule) *Injector {
	j := &Injector{}
	for _, r := range rules {
		j.Add(r)
	}
	return j
}

// Add installs one rule.
func (j *Injector) Add(rule FaultRule) {
	if rule.Err == nil {
		rule.Err = ErrInjectedFault
	}
	j.mu.Lock()
	j.rules = append(j.rules, &ruleState{rule: rule})
	j.mu.Unlock()
}

// Clear removes every rule — the "device healed" transition of a chaos
// scenario. Traffic counters are preserved.
func (j *Injector) Clear() {
	j.mu.Lock()
	j.rules = nil
	j.mu.Unlock()
}

// Ops returns how many operations of the class have been observed.
func (j *Injector) Ops(op FaultOp) int64 { return j.counts[op].Load() }

// Injected returns how many operations of the class have been failed.
func (j *Injector) Injected(op FaultOp) int64 { return j.injected[op].Load() }

// Check records one operation of the class and returns a non-nil Injection
// when a rule fires on it. Rule latency, if any, is applied here.
func (j *Injector) Check(op FaultOp) *Injection {
	if j == nil {
		return nil
	}
	j.counts[op].Add(1)
	var (
		out   *Injection
		delay time.Duration
	)
	j.mu.Lock()
	for _, rs := range j.rules {
		if rs.rule.Op != op {
			continue
		}
		rs.seen++
		if rs.rule.Latency > delay {
			delay = rs.rule.Latency
		}
		if out != nil {
			continue
		}
		if rs.seen > rs.rule.After && (rs.rule.Count == 0 || rs.fired < rs.rule.Count) {
			rs.fired++
			out = &Injection{Err: rs.rule.Err, Torn: rs.rule.Torn}
		}
	}
	j.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if out != nil {
		j.injected[op].Add(1)
	}
	return out
}

// ParseFaultSpec parses the chaos-harness command-line syntax into rules:
// comma-separated rules of colon-separated fields, an op name followed by
// key=value settings —
//
//	wal-sync:after=20:count=1
//	page-write:after=100:err=enospc,data-sync:count=2:latency=5ms
//
// Ops: page-write, page-read, data-sync, wal-write, wal-sync. Keys: after,
// count, err (fault|enospc), torn, latency (a Go duration).
func ParseFaultSpec(spec string) ([]FaultRule, error) {
	var rules []FaultRule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		op, ok := faultOpNames[fields[0]]
		if !ok {
			return nil, fmt.Errorf("pagefile: fault spec %q: unknown op %q", part, fields[0])
		}
		rule := FaultRule{Op: op}
		for _, f := range fields[1:] {
			k, v, found := strings.Cut(f, "=")
			if !found {
				return nil, fmt.Errorf("pagefile: fault spec %q: field %q is not key=value", part, f)
			}
			switch k {
			case "after":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("pagefile: fault spec %q: bad after=%q", part, v)
				}
				rule.After = n
			case "count":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("pagefile: fault spec %q: bad count=%q", part, v)
				}
				rule.Count = n
			case "err":
				switch v {
				case "fault":
					rule.Err = ErrInjectedFault
				case "enospc":
					rule.Err = syscall.ENOSPC
				default:
					return nil, fmt.Errorf("pagefile: fault spec %q: unknown err=%q (fault|enospc)", part, v)
				}
			case "torn":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("pagefile: fault spec %q: bad torn=%q", part, v)
				}
				rule.Torn = n
			case "latency":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("pagefile: fault spec %q: bad latency=%q", part, v)
				}
				rule.Latency = d
			default:
				return nil, fmt.Errorf("pagefile: fault spec %q: unknown key %q", part, k)
			}
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("pagefile: empty fault spec")
	}
	return rules, nil
}
