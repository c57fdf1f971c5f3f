package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bate/internal/chaos"
	"bate/internal/scenario"
	"bate/internal/topo"
)

func mustLink(t testing.TB, net *topo.Network, src, dst string) topo.LinkID {
	t.Helper()
	s, ok := net.NodeByName(src)
	if !ok {
		t.Fatalf("no DC %s", src)
	}
	d, ok := net.NodeByName(dst)
	if !ok {
		t.Fatalf("no DC %s", dst)
	}
	l, ok := net.LinkBetween(s, d)
	if !ok {
		t.Fatalf("no link %s->%s", src, dst)
	}
	return l.ID
}

func testSchedule(t testing.TB, net *topo.Network) *Schedule {
	return &Schedule{
		Events: []FailureEvent{
			{Link: mustLink(t, net, "DC1", "DC4"), DownAt: 30, UpAt: 90.5},
			{Link: mustLink(t, net, "DC2", "DC5"), DownAt: 30, UpAt: 45},
		},
		Groups: []scenario.RiskGroup{
			{Name: "conduit-west", Prob: 0.002, Links: []topo.LinkID{
				mustLink(t, net, "DC1", "DC2"), mustLink(t, net, "DC1", "DC6"),
			}},
			{Name: "metro-dc5", Prob: 0, Links: []topo.LinkID{
				mustLink(t, net, "DC2", "DC5"), mustLink(t, net, "DC4", "DC5"), mustLink(t, net, "DC5", "DC6"),
			}},
		},
		Storms: []Storm{
			{Group: "conduit-west", AtSec: 120, DurationSec: 40},
			{Group: "metro-dc5", AtSec: 200, DurationSec: 25},
		},
		Maintenance: []MaintenanceWindow{
			{Link: mustLink(t, net, "DC3", "DC4"), StartSec: 300, EndSec: 360, LeadSec: 20},
		},
	}
}

// Write -> Parse must reproduce the schedule exactly: replay files are
// the determinism contract of every hostile scenario.
func TestScheduleRoundTrip(t *testing.T) {
	net := topo.Testbed()
	s := testSchedule(t, net)
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, net, s); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchedule(bytes.NewReader(buf.Bytes()), net)
	if err != nil {
		t.Fatalf("parse of written schedule: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed schedule:\nwant %+v\ngot  %+v\ntext:\n%s", s, got, buf.String())
	}
}

// Bare 4-field lines (the plain failure-trace format) must keep
// parsing, with and without the explicit link keyword.
func TestScheduleTraceBackCompat(t *testing.T) {
	net := topo.Testbed()
	text := "# legacy trace\nDC1 DC4 120 180\nlink DC2 DC3 10 20\n"
	s, err := ParseSchedule(strings.NewReader(text), net)
	if err != nil {
		t.Fatal(err)
	}
	trace := []FailureEvent{
		{Link: mustLink(t, net, "DC2", "DC3"), DownAt: 10, UpAt: 20},
		{Link: mustLink(t, net, "DC1", "DC4"), DownAt: 120, UpAt: 180},
	}
	if !reflect.DeepEqual(s.Events, trace) {
		t.Fatalf("schedule events %+v != trace %+v", s.Events, trace)
	}
	if len(s.Groups)+len(s.Storms)+len(s.Maintenance) != 0 {
		t.Fatalf("bare trace grew extra directives: %+v", s)
	}
}

// AllEvents must unroll storms over their group's links and include
// maintenance windows, sorted by failure time.
func TestScheduleAllEvents(t *testing.T) {
	net := topo.Testbed()
	s := testSchedule(t, net)
	events := s.AllEvents()
	// 2 scripted + 2-link storm + 3-link storm + 1 maintenance.
	if want := 2 + 2 + 3 + 1; len(events) != want {
		t.Fatalf("AllEvents returned %d events, want %d: %+v", len(events), want, events)
	}
	for i, ev := range events {
		if ev.UpAt <= ev.DownAt {
			t.Fatalf("event %d repairs before failing: %+v", i, ev)
		}
		if i > 0 && ev.DownAt < events[i-1].DownAt {
			t.Fatalf("events not sorted at %d", i)
		}
	}
	// The DC5 metro storm must cover all three of its links at t=200.
	covered := 0
	for _, ev := range events {
		if ev.DownAt == 200 && ev.UpAt == 225 {
			covered++
		}
	}
	if covered != 3 {
		t.Fatalf("metro storm expanded to %d links, want 3", covered)
	}
}

// Malformed schedules must be rejected with errors, not mangled.
func TestScheduleRejects(t *testing.T) {
	net := topo.Testbed()
	bad := []string{
		"DC1 DC4 100",                            // too few fields
		"DC1 DC9 100 200",                        // unknown DC
		"DC1 DC4 200 100",                        // repair before failure
		"link DC1 DC4 -5 100",                    // negative time
		"srlg g1 1.5 DC1>DC2",                    // probability out of range
		"srlg g1 0.1 DC1-DC2",                    // bad member syntax
		"srlg g1 0.1 DC1>DC2\nsrlg g1 0 DC2>DC3", // duplicate name
		"storm nope 10 20",                       // undeclared group
		"srlg g1 0 DC1>DC2\nstorm g1 10 0",       // zero storm duration
		"maint DC1 DC4 100 50 10",                // window ends before start
		"maint DC1 DC4 100 200",                  // missing lead
	}
	for i, text := range bad {
		if _, err := ParseSchedule(strings.NewReader(text), net); err == nil {
			t.Fatalf("bad schedule %d accepted: %q", i, text)
		}
	}
}

// Chaos storm schedules must be seed-deterministic and in-horizon.
func TestChaosStormsDeterministic(t *testing.T) {
	a := chaos.SRLGStorms(42, 4, 1000, 12)
	b := chaos.SRLGStorms(42, 4, 1000, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different storm schedules")
	}
	c := chaos.SRLGStorms(43, 4, 1000, 12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical storm schedules")
	}
	for i, st := range a {
		if st.Group < 0 || st.Group >= 4 {
			t.Fatalf("storm %d hit out-of-range group %d", i, st.Group)
		}
		if st.DownAt < 0 || st.UpAt > 1000 || st.UpAt <= st.DownAt {
			t.Fatalf("storm %d outside horizon: %+v", i, st)
		}
		if i > 0 && st.DownAt < a[i-1].DownAt {
			t.Fatalf("storms not sorted at %d", i)
		}
	}
	d := chaos.RegionalDisasters(42, 6, 1000, 3)
	if !reflect.DeepEqual(d, chaos.RegionalDisasters(42, 6, 1000, 3)) {
		t.Fatal("same seed produced different disaster schedules")
	}
	for i, ev := range d {
		if ev.Group < 0 || ev.Group >= 6 || ev.UpAt <= ev.DownAt || ev.UpAt > 1000 {
			t.Fatalf("disaster %d invalid: %+v", i, ev)
		}
	}
}

// FuzzScenarioTrace hardens the schedule parser the way FuzzWALRecord
// hardens the WAL codec: anything ParseSchedule accepts must respect
// the documented invariants and survive WriteSchedule -> ParseSchedule
// unchanged; anything else must error, never panic.
func FuzzScenarioTrace(f *testing.F) {
	net := topo.Testbed()
	// Seed corpus: the canonical rendering of a full schedule, a legacy
	// trace, and assorted near-miss directives.
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, net, testSchedule(f, net)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("DC1 DC4 120 180\n")
	f.Add("# comment only\n\n")
	f.Add("srlg g 0.5 DC1>DC2 DC2>DC3\nstorm g 1 2\n")
	f.Add("maint DC5 DC6 10 20 5\nlink DC1 DC2 1 2\n")
	f.Add("srlg g 1e-9 DC1>DC2\nstorm g 0.5 1e3\n")

	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(strings.NewReader(text), net)
		if err != nil {
			return // rejected input: fine, as long as no panic
		}
		for i, ev := range s.Events {
			if ev.UpAt <= ev.DownAt || ev.DownAt < 0 {
				t.Fatalf("accepted event %d with bad times: %+v", i, ev)
			}
			if int(ev.Link) < 0 || int(ev.Link) >= net.NumLinks() {
				t.Fatalf("accepted event %d with bad link: %+v", i, ev)
			}
			if i > 0 && ev.DownAt < s.Events[i-1].DownAt {
				t.Fatalf("events not sorted at %d", i)
			}
		}
		for i, g := range s.Groups {
			if g.Name == "" || len(g.Links) == 0 || g.Prob < 0 || g.Prob >= 1 || g.Prob != g.Prob {
				t.Fatalf("accepted bad group %d: %+v", i, g)
			}
		}
		for i, st := range s.Storms {
			if _, ok := s.groupByName(st.Group); !ok {
				t.Fatalf("accepted storm %d over undeclared group %q", i, st.Group)
			}
			if st.DurationSec <= 0 || st.AtSec < 0 {
				t.Fatalf("accepted bad storm %d: %+v", i, st)
			}
		}
		for i, m := range s.Maintenance {
			if m.EndSec <= m.StartSec || m.StartSec < 0 || m.LeadSec < 0 {
				t.Fatalf("accepted bad maintenance %d: %+v", i, m)
			}
		}
		// Accepted schedules must round-trip exactly.
		var out bytes.Buffer
		if err := WriteSchedule(&out, net, s); err != nil {
			t.Fatalf("WriteSchedule of accepted schedule: %v", err)
		}
		again, err := ParseSchedule(bytes.NewReader(out.Bytes()), net)
		if err != nil {
			t.Fatalf("Parse(Write(Parse(x))): %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed schedule:\nfirst  %+v\nsecond %+v\ntext:\n%s", s, again, out.String())
		}
	})
}
