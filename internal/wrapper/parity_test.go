package wrapper

import (
	"fmt"
	"testing"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
)

// parityEnv is one client of one codec against one NewServerStack.
type parityEnv struct {
	t   *testing.T
	cli *Client
	sp  *space.Space
}

// The parity inputs: an entry exercising every field kind, the
// all-wildcard template matching it, and a template nothing matches.
var (
	parityEntry = tuple.New("bin",
		tuple.String("s", "payload"), tuple.Int("n", 42),
		tuple.Float("f", 2.5), tuple.Bool("b", true),
		tuple.Bytes("raw", []byte{0, 1, 2}))
	parityTmpl = tuple.New("bin", tuple.AnyString("s"), tuple.AnyInt("n"),
		tuple.AnyFloat("f"), tuple.AnyBool("b"), tuple.AnyBytes("raw"))
	parityAbsent = tuple.New("none", tuple.AnyInt("n"))
)

const (
	parityLong  = sim.Duration(5 * sim.Second)
	parityShort = sim.Duration(sim.Millisecond)
)

// await issues one async op and returns what its callback observed.
func (e *parityEnv) await(issue func(done func(string))) string {
	e.t.Helper()
	ch := make(chan string, 1)
	issue(func(s string) { ch <- s })
	select {
	case s := <-ch:
		return s
	case <-time.After(10 * time.Second):
		e.t.Fatal("op never completed")
		return ""
	}
}

// seed stores the parity entry server-side.
func (e *parityEnv) seed() {
	e.t.Helper()
	if _, err := e.sp.Write(parityEntry, space.NoLease); err != nil {
		e.t.Fatal(err)
	}
}

// whileCrashing runs op while the space crashes every millisecond: a
// parked take/read is woken under ErrCrashed whenever it parks (a crash
// that beats it to the space only wipes an already-empty store).
func (e *parityEnv) whileCrashing(op func() string) string {
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				e.sp.Crash()
			}
		}
	}()
	got := op()
	close(stop)
	<-stopped
	return got
}

type parityRow struct {
	name   string
	closed bool // run after Client.Close
	want   string
	run    func(e *parityEnv) string
}

// matchObsSet is what one match-family op must observe in each case.
type matchObsSet struct{ hit, miss, crash, closed string }

func matchObs(t tuple.Tuple, ok bool) string { return fmt.Sprintf("%v ok=%v", t, ok) }

func statusObs(t tuple.Tuple, ok bool, msg string) string {
	return fmt.Sprintf("%v ok=%v msg=%q", t, ok, msg)
}

// parityRows enumerates every public op under every case it can meet.
func parityRows() []parityRow {
	hit := matchObs(parityEntry, true)
	miss := matchObs(tuple.Tuple{}, false)
	var rows []parityRow
	add := func(name, want string, run func(e *parityEnv) string) {
		rows = append(rows, parityRow{name: name, want: want, run: run})
	}
	addClosed := func(name, want string, run func(e *parityEnv) string) {
		rows = append(rows, parityRow{name: name + "/closed", closed: true, want: want, run: run})
	}

	// Write and WriteWait: stored, rejected server-side (a template is
	// not an entry), and refused locally after Close.
	write := func(t tuple.Tuple) func(e *parityEnv) string {
		return func(e *parityEnv) string {
			return e.await(func(done func(string)) {
				e.cli.Write(t, space.NoLease, func(ok bool, msg string) {
					done(fmt.Sprintf("ok=%v msg=%q", ok, msg))
				})
			})
		}
	}
	writeWait := func(t tuple.Tuple) func(e *parityEnv) string {
		return func(e *parityEnv) string { return fmt.Sprint(e.cli.WriteWait(t, space.NoLease)) }
	}
	templateErr := space.ErrTemplateWrite.Error()
	cleaned := func(run func(e *parityEnv) string) func(e *parityEnv) string {
		return func(e *parityEnv) string {
			defer e.sp.TakeIfExists(parityTmpl)
			return run(e)
		}
	}
	add("Write/hit", `ok=true msg=""`, cleaned(write(parityEntry)))
	add("Write/template", fmt.Sprintf("ok=false msg=%q", templateErr), write(parityTmpl))
	addClosed("Write", fmt.Sprintf("ok=false msg=%q", ErrClosed), write(parityEntry))
	add("WriteWait/hit", "<nil>", cleaned(writeWait(parityEntry)))
	add("WriteWait/template", templateErr, writeWait(parityTmpl))
	addClosed("WriteWait", ErrClosed.Error(), writeWait(parityEntry))

	// The match family. Each op is normalized to (template, timeout) →
	// observation; IfExists forms ignore the timeout and cannot park,
	// so they have no crash case.
	type matchOp struct {
		name  string
		parks bool
		take  bool // a hit consumes the entry
		obs   matchObsSet
		issue func(e *parityEnv, tmpl tuple.Tuple, timeout sim.Duration) string
	}
	async := func(call func(c *Client, tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool))) func(*parityEnv, tuple.Tuple, sim.Duration) string {
		return func(e *parityEnv, tmpl tuple.Tuple, timeout sim.Duration) string {
			return e.await(func(done func(string)) {
				call(e.cli, tmpl, timeout, func(t tuple.Tuple, ok bool) { done(matchObs(t, ok)) })
			})
		}
	}
	status := func(call func(c *Client, tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool, string))) func(*parityEnv, tuple.Tuple, sim.Duration) string {
		return func(e *parityEnv, tmpl tuple.Tuple, timeout sim.Duration) string {
			return e.await(func(done func(string)) {
				call(e.cli, tmpl, timeout, func(t tuple.Tuple, ok bool, msg string) { done(statusObs(t, ok, msg)) })
			})
		}
	}
	// The Into forms start from a sentinel destination: a hit overwrites
	// it, a miss leaves it untouched.
	sentinel := tuple.New("sentinel", tuple.Int("n", 7))
	into := func(call func(c *Client, into *tuple.Tuple, tmpl tuple.Tuple, timeout sim.Duration) bool) func(*parityEnv, tuple.Tuple, sim.Duration) string {
		return func(e *parityEnv, tmpl tuple.Tuple, timeout sim.Duration) string {
			dst := sentinel.Clone()
			ok := call(e.cli, &dst, tmpl, timeout)
			return matchObs(dst, ok)
		}
	}
	// plain ops drop the failure cause; status ops expose it; Into ops
	// leave the sentinel in place on any failure.
	plain := matchObsSet{hit: hit, miss: miss, crash: miss, closed: miss}
	withStatus := matchObsSet{
		hit:    statusObs(parityEntry, true, ""),
		miss:   statusObs(tuple.Tuple{}, false, ""),
		crash:  statusObs(tuple.Tuple{}, false, space.ErrCrashed.Error()),
		closed: statusObs(tuple.Tuple{}, false, ErrClosed.Error()),
	}
	intoMiss := matchObs(sentinel, false)
	intoObs := matchObsSet{hit: hit, miss: intoMiss, crash: intoMiss, closed: intoMiss}
	ops := []matchOp{
		{"Take", true, true, plain, async((*Client).Take)},
		{"Read", true, false, plain, async((*Client).Read)},
		{"TakeIfExists", false, true, plain, async(func(c *Client, tmpl tuple.Tuple, _ sim.Duration, cb func(tuple.Tuple, bool)) {
			c.TakeIfExists(tmpl, cb)
		})},
		{"ReadIfExists", false, false, plain, async(func(c *Client, tmpl tuple.Tuple, _ sim.Duration, cb func(tuple.Tuple, bool)) {
			c.ReadIfExists(tmpl, cb)
		})},
		{"TakeStatus", true, true, withStatus, status((*Client).TakeStatus)},
		{"ReadStatus", true, false, withStatus, status((*Client).ReadStatus)},
		{"TakeWaitInto", true, true, intoObs, into((*Client).TakeWaitInto)},
		{"ReadWaitInto", true, false, intoObs, into((*Client).ReadWaitInto)},
	}
	for _, op := range ops {
		op := op
		add(op.name+"/hit", op.obs.hit, func(e *parityEnv) string {
			e.seed()
			got := op.issue(e, parityTmpl, parityLong)
			if _, left := e.sp.TakeIfExists(parityTmpl); left == op.take {
				e.t.Errorf("%s: entry left behind = %v, want %v", op.name, left, !op.take)
			}
			return got
		})
		add(op.name+"/miss", op.obs.miss, func(e *parityEnv) string {
			return op.issue(e, parityAbsent, parityShort)
		})
		if op.parks {
			add(op.name+"/crash", op.obs.crash, func(e *parityEnv) string {
				return e.whileCrashing(func() string { return op.issue(e, parityAbsent, parityLong) })
			})
		}
		addClosed(op.name, op.obs.closed, func(e *parityEnv) string {
			return op.issue(e, parityTmpl, parityLong)
		})
	}

	// Count, CountWait, Ping.
	count := func(tmpl tuple.Tuple) func(e *parityEnv) string {
		return func(e *parityEnv) string {
			return e.await(func(done func(string)) {
				e.cli.Count(tmpl, func(n int64, ok bool) { done(fmt.Sprintf("n=%d ok=%v", n, ok)) })
			})
		}
	}
	countWait := func(tmpl tuple.Tuple) func(e *parityEnv) string {
		return func(e *parityEnv) string {
			n, ok := e.cli.CountWait(tmpl)
			return fmt.Sprintf("n=%d ok=%v", n, ok)
		}
	}
	seeded := func(run func(e *parityEnv) string) func(e *parityEnv) string {
		return cleaned(func(e *parityEnv) string {
			e.seed()
			return run(e)
		})
	}
	add("Count/hit", "n=1 ok=true", seeded(count(parityTmpl)))
	add("Count/miss", "n=0 ok=true", count(parityAbsent))
	addClosed("Count", "n=0 ok=false", count(parityTmpl))
	add("CountWait/hit", "n=1 ok=true", seeded(countWait(parityTmpl)))
	add("CountWait/miss", "n=0 ok=true", countWait(parityAbsent))
	addClosed("CountWait", "n=0 ok=false", countWait(parityTmpl))
	ping := func(e *parityEnv) string {
		return e.await(func(done func(string)) {
			e.cli.Ping(func(ok bool) { done(fmt.Sprintf("ok=%v", ok)) })
		})
	}
	add("Ping/hit", "ok=true", ping)
	addClosed("Ping", "ok=false", ping)

	// Notify: the subscription is acknowledged, then a matching write is
	// pushed to it. Last of the open rows, so no later write feeds it.
	add("Notify/hit", "ok=true event="+parityEntry.String(), func(e *parityEnv) string {
		events := make(chan tuple.Tuple, 1)
		sub := e.await(func(done func(string)) {
			e.cli.Notify(parityTmpl, func(t tuple.Tuple) { events <- t },
				func(ok bool) { done(fmt.Sprintf("ok=%v", ok)) })
		})
		e.seed()
		defer e.sp.TakeIfExists(parityTmpl)
		select {
		case t := <-events:
			return sub + " event=" + t.String()
		case <-time.After(10 * time.Second):
			return sub + " event never delivered"
		}
	})
	addClosed("Notify", "ok=false", func(e *parityEnv) string {
		return e.await(func(done func(string)) {
			e.cli.Notify(parityTmpl, func(tuple.Tuple) {}, func(ok bool) { done(fmt.Sprintf("ok=%v", ok)) })
		})
	})
	return rows
}

// TestCodecParity runs every public client op over both codecs, each
// against one NewServerStack, and demands the same observable result
// from both for hits, misses/timeouts, server-side errors (a template
// written; the space crashing under a parked op) and a closed client.
// One issue path and one completion path serve both codecs; this is
// the test that holds them to it.
func TestCodecParity(t *testing.T) {
	for _, codec := range []struct {
		name string
		opts []ClientOption
	}{
		{"xml", nil},
		{"binary", []ClientOption{WithBinaryCodec()}},
	} {
		codec := codec
		t.Run(codec.name, func(t *testing.T) {
			sp := space.New(space.NewRealRuntime(), space.WithShards(2))
			a, b := transport.NewLoopback()
			NewServerStack(b, sp)
			cli := NewClient(a, codec.opts...)
			e := &parityEnv{t: t, cli: cli, sp: sp}
			rows := parityRows()
			for _, closed := range []bool{false, true} {
				if closed {
					if err := cli.Close(); err != nil {
						t.Fatal(err)
					}
				}
				for _, row := range rows {
					if row.closed != closed {
						continue
					}
					if got := row.run(e); got != row.want {
						t.Errorf("%s: got %s, want %s", row.name, got, row.want)
					}
					if n := sp.Size(); n != 0 {
						t.Fatalf("%s: left %d entries behind", row.name, n)
					}
				}
			}
		})
	}
}
