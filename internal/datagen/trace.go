package datagen

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"cluseq/internal/seq"
)

// System-call trace workload — the paper's introduction names "system
// traces" among the sequence data CLUSEQ targets. Each trace is the
// syscall sequence of one process; processes of the same kind share
// characteristic short-memory call patterns (loops like open→read→read→
// close), and anomalous processes (simulated intrusions) follow none of
// the normal profiles.

// Syscalls is the simulated syscall inventory; symbol i of the trace
// alphabet denotes Syscalls[i].
var Syscalls = []string{
	"open", "read", "write", "close", "stat", "mmap", "brk", "ioctl",
	"socket", "connect", "accept", "send", "recv", "bind", "listen",
	"fork", "execve", "wait", "exit", "kill", "chmod", "chown", "unlink",
	"mkdir", "getpid", "time", "select", "poll", "futex", "nanosleep",
}

// traceAlphabet maps each syscall to one rune.
func traceAlphabet() *seq.Alphabet {
	runes := make([]rune, len(Syscalls))
	for i := range runes {
		runes[i] = rune('A' + i)
	}
	return seq.MustAlphabet(string(runes))
}

// SyscallName decodes one trace symbol to its syscall name.
func SyscallName(s seq.Symbol) string {
	if int(s) < len(Syscalls) {
		return Syscalls[s]
	}
	return fmt.Sprintf("sys%d", s)
}

// DecodeTrace renders a trace as space-separated syscall names.
func DecodeTrace(symbols []seq.Symbol) string {
	parts := make([]string, len(symbols))
	for i, s := range symbols {
		parts[i] = SyscallName(s)
	}
	return strings.Join(parts, " ")
}

// traceProfiles defines the normal process kinds. Each profile is a set
// of weighted call-pattern chunks; a trace interleaves chunks drawn from
// its profile.
var traceProfiles = []struct {
	Name   string
	Chunks []string // space-separated syscall chunks, sampled uniformly
}{
	{
		Name: "fileserver",
		Chunks: []string{
			"open read read read close",
			"open read write close",
			"stat open read close",
			"open mmap read close",
			"stat stat open read read close",
		},
	},
	{
		Name: "webserver",
		Chunks: []string{
			"accept recv send send close",
			"accept recv recv send close",
			"poll accept recv send close",
			"accept recv send futex send close",
			"select accept recv send close",
		},
	},
	{
		Name: "cron",
		Chunks: []string{
			"nanosleep time stat nanosleep",
			"nanosleep nanosleep time stat",
			"time nanosleep time fork execve wait exit",
			"nanosleep time time stat nanosleep",
		},
	},
	{
		Name: "shell",
		Chunks: []string{
			"read write read write ioctl",
			"read ioctl write read write",
			"read write fork execve wait write ioctl",
			"read write read ioctl read write",
		},
	},
}

// TraceConfig parameterizes TraceDB.
type TraceConfig struct {
	// TracesPerProfile is how many processes of each normal kind are
	// generated. Default 80.
	TracesPerProfile int
	// MinCalls/MaxCalls bound trace lengths. Defaults 60 and 200.
	MinCalls, MaxCalls int
	// Anomalies is how many intrusion-like traces to add (unlabeled;
	// their call mix follows no normal profile). Default 10.
	Anomalies int
	Seed      uint64 // default 4
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.TracesPerProfile == 0 {
		c.TracesPerProfile = 80
	}
	if c.MinCalls == 0 {
		c.MinCalls = 60
	}
	if c.MaxCalls == 0 {
		c.MaxCalls = 200
	}
	if c.Anomalies == 0 {
		c.Anomalies = 10
	}
	if c.Seed == 0 {
		c.Seed = 4
	}
	return c
}

// TraceDB generates the simulated system-call trace database. Normal
// traces carry their profile name as the label; anomalies are unlabeled.
func TraceDB(cfg TraceConfig) (*seq.Database, error) {
	cfg = cfg.withDefaults()
	if cfg.MinCalls < 10 || cfg.MaxCalls < cfg.MinCalls {
		return nil, fmt.Errorf("datagen: invalid trace config %+v", cfg)
	}
	alphabet := traceAlphabet()
	db := seq.NewDatabase(alphabet)
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x74726163))

	call := func(name string) seq.Symbol {
		for i, s := range Syscalls {
			if s == name {
				return seq.Symbol(i)
			}
		}
		panic("datagen: unknown syscall " + name)
	}

	id := 0
	for _, p := range traceProfiles {
		// Pre-encode the profile's chunks.
		chunks := make([][]seq.Symbol, len(p.Chunks))
		for i, c := range p.Chunks {
			for _, name := range strings.Fields(c) {
				chunks[i] = append(chunks[i], call(name))
			}
		}
		for n := 0; n < cfg.TracesPerProfile; n++ {
			length := cfg.MinCalls + rng.IntN(cfg.MaxCalls-cfg.MinCalls+1)
			trace := make([]seq.Symbol, 0, length+8)
			for len(trace) < length {
				chunk := chunks[rng.IntN(len(chunks))]
				trace = append(trace, chunk...)
				// Occasional bookkeeping calls between chunks.
				if rng.Float64() < 0.2 {
					trace = append(trace, call("getpid"))
				}
			}
			db.Add(&seq.Sequence{
				ID:      fmt.Sprintf("proc%05d", id),
				Label:   p.Name,
				Symbols: trace[:length],
			})
			id++
		}
	}
	// Anomalies: each intruder follows its own idiosyncratic call mix (a
	// distinct random source per anomaly, plus a suspicious burst), so
	// the anomalies match no normal profile and no two of them match each
	// other — true outliers, not an undiscovered cluster.
	for n := 0; n < cfg.Anomalies; n++ {
		src := NewClusterSource(1000+n, cfg.Seed^0x616e6f6d, alphabet.Size(), 1)
		burst := []seq.Symbol{
			call("execve"), call("chmod"),
			seq.Symbol(rng.IntN(alphabet.Size())),
			call("unlink"),
		}
		length := cfg.MinCalls + rng.IntN(cfg.MaxCalls-cfg.MinCalls+1)
		trace := make([]seq.Symbol, 0, length+8)
		for len(trace) < length {
			if rng.Float64() < 0.1 {
				trace = append(trace, burst...)
			} else {
				trace = append(trace, src.Next(trace, rng))
			}
		}
		db.Add(&seq.Sequence{ID: fmt.Sprintf("anom%03d", n), Symbols: trace[:length]})
	}
	rng.Shuffle(db.Len(), func(i, j int) {
		db.Sequences[i], db.Sequences[j] = db.Sequences[j], db.Sequences[i]
	})
	return db, nil
}
