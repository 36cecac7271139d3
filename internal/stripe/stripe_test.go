package stripe

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func layouts() []Layout {
	return []Layout{
		{Unit: 4096, Agents: 1},
		{Unit: 4096, Agents: 3},
		{Unit: 1000, Agents: 4},
		{Unit: 32768, Agents: 8},
		{Unit: 4096, Agents: 3, ParityUnits: 1},
		{Unit: 1000, Agents: 4, ParityUnits: 1},
		{Unit: 8192, Agents: 7, ParityUnits: 1},
		{Unit: 4096, Agents: 4, ParityUnits: 2},
		{Unit: 1000, Agents: 5, ParityUnits: 2},
		{Unit: 8192, Agents: 6, ParityUnits: 2},
		{Unit: 2048, Agents: 7, ParityUnits: 3},
		{Unit: 512, Agents: 6, ParityUnits: 4},
	}
}

func TestValidate(t *testing.T) {
	bad := []Layout{
		{Unit: 0, Agents: 3},
		{Unit: -5, Agents: 3},
		{Unit: 4096, Agents: 0},
		{Unit: 4096, Agents: 2, ParityUnits: 1},
		{Unit: 4096, Agents: 3, ParityUnits: 2},
		{Unit: 4096, Agents: 5, ParityUnits: 4},
		{Unit: 4096, Agents: 5, ParityUnits: -1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %+v validated", l)
		}
	}
	for _, l := range layouts() {
		if err := l.Validate(); err != nil {
			t.Errorf("layout %+v rejected: %v", l, err)
		}
	}
}

func TestLocateGlobalOfRoundTrip(t *testing.T) {
	for _, l := range layouts() {
		for g := int64(0); g < 20*l.RowBytes(); g += l.Unit/3 + 1 {
			a, local := l.Locate(g)
			back, ok := l.GlobalOf(a, local)
			if !ok {
				t.Fatalf("%+v: Locate(%d) -> (%d,%d) lands on parity", l, g, a, local)
			}
			if back != g {
				t.Fatalf("%+v: GlobalOf(Locate(%d)) = %d", l, g, back)
			}
		}
	}
}

func TestLocateQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layouts()[rng.Intn(len(layouts()))]
		g := rng.Int63n(1 << 40)
		a, local := l.Locate(g)
		if a < 0 || a >= l.Agents || local < 0 {
			return false
		}
		back, ok := l.GlobalOf(a, local)
		return ok && back == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParityAgentRotates(t *testing.T) {
	l := Layout{Unit: 4096, Agents: 5, ParityUnits: 1}
	seen := make(map[int]int)
	for r := int64(0); r < 5; r++ {
		seen[l.ParityAgent(r)]++
	}
	if len(seen) != 5 {
		t.Fatalf("parity hit only %d agents in one cycle", len(seen))
	}
	// And the parity agent never coincides with a data agent of the row.
	for r := int64(0); r < 20; r++ {
		p := l.ParityAgent(r)
		for j := 0; j < l.DataPerRow(); j++ {
			if l.DataAgent(r, j) == p {
				t.Fatalf("row %d: data agent %d equals parity agent", r, j)
			}
		}
	}
}

// TestLegacyParityPlacementUnchanged pins the k=1 layout to the legacy
// formulas: objects written by the single-XOR engine keep their exact
// unit placement under the generalized rotation.
func TestLegacyParityPlacementUnchanged(t *testing.T) {
	for _, agents := range []int{3, 4, 5, 7, 8} {
		l := Layout{Unit: 4096, Agents: agents, ParityUnits: 1}
		for r := int64(0); r < int64(4*agents); r++ {
			legacyP := int(int64(agents-1) - r%int64(agents))
			if got := l.ParityAgent(r); got != legacyP {
				t.Fatalf("agents=%d row=%d: ParityAgent=%d want legacy %d", agents, r, got, legacyP)
			}
			if got := l.ParityAgentAt(r, 0); got != legacyP {
				t.Fatalf("agents=%d row=%d: ParityAgentAt(0)=%d want %d", agents, r, got, legacyP)
			}
			for j := 0; j < agents-1; j++ {
				legacyD := (legacyP + 1 + j) % agents
				if got := l.DataAgent(r, j); got != legacyD {
					t.Fatalf("agents=%d row=%d j=%d: DataAgent=%d want legacy %d", agents, r, j, got, legacyD)
				}
			}
		}
	}
}

// TestRowPartition verifies that in every row the k parity agents and
// m data agents partition the agent set: each agent holds exactly one
// unit per row, and ParityPos/dataPos agree on which kind.
func TestRowPartition(t *testing.T) {
	for _, l := range layouts() {
		k := l.ParityUnits
		for r := int64(0); r < 3*int64(l.Agents); r++ {
			kind := make(map[int]string)
			for j := 0; j < k; j++ {
				a := l.ParityAgentAt(r, j)
				if kind[a] != "" {
					t.Fatalf("%+v row %d: agent %d assigned twice", l, r, a)
				}
				kind[a] = "parity"
				if got := l.ParityPos(r, a); got != j {
					t.Fatalf("%+v row %d: ParityPos(%d)=%d want %d", l, r, a, got, j)
				}
				if l.dataPos(r, a) != -1 {
					t.Fatalf("%+v row %d: parity agent %d has dataPos", l, r, a)
				}
			}
			for j := 0; j < l.DataPerRow(); j++ {
				a := l.DataAgent(r, j)
				if kind[a] != "" {
					t.Fatalf("%+v row %d: agent %d assigned twice (%s)", l, r, a, kind[a])
				}
				kind[a] = "data"
				if got := l.dataPos(r, a); got != j {
					t.Fatalf("%+v row %d: dataPos(%d)=%d want %d", l, r, a, got, j)
				}
				if l.ParityPos(r, a) != -1 {
					t.Fatalf("%+v row %d: data agent %d has ParityPos", l, r, a)
				}
			}
			if len(kind) != l.Agents {
				t.Fatalf("%+v row %d: %d agents assigned, want %d", l, r, len(kind), l.Agents)
			}
		}
	}
}

// TestParityRotationCoverage: over enough rows every agent holds data at
// least once per Agents consecutive rows — the invariant backing the
// SizeFromFragments walk-back bound.
func TestParityRotationCoverage(t *testing.T) {
	for _, l := range layouts() {
		if l.ParityUnits == 0 {
			continue
		}
		run := make(map[int]int)
		for r := int64(0); r < 10*int64(l.Agents); r++ {
			for a := 0; a < l.Agents; a++ {
				if l.ParityPos(r, a) >= 0 {
					run[a]++
					if run[a] > l.Agents {
						t.Fatalf("%+v: agent %d holds parity for > %d consecutive rows", l, a, l.Agents)
					}
				} else {
					run[a] = 0
				}
			}
		}
	}
}

func TestDataAgentsCoverRow(t *testing.T) {
	for _, l := range layouts() {
		for r := int64(0); r < 10; r++ {
			used := make(map[int]bool)
			for j := 0; j < l.DataPerRow(); j++ {
				a := l.DataAgent(r, j)
				if used[a] {
					t.Fatalf("%+v row %d: agent %d used twice", l, r, a)
				}
				used[a] = true
			}
		}
	}
}

// TestRunsPartition verifies that Runs exactly tiles the requested range:
// runs are in ascending global order, contiguous, and map consistently.
func TestRunsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layouts()[rng.Intn(len(layouts()))]
		off := rng.Int63n(1 << 30)
		n := rng.Int63n(20*l.Unit) + 1
		runs := l.Runs(off, n)
		pos := off
		for _, r := range runs {
			if r.Global != pos || r.Length <= 0 || r.Length > l.Unit {
				return false
			}
			a, local := l.Locate(r.Global)
			if a != r.Agent || local != r.Local {
				return false
			}
			// A run never crosses a unit boundary.
			if r.Global/l.Unit != (r.Global+r.Length-1)/l.Unit {
				return false
			}
			pos += r.Length
		}
		return pos == off+n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalExtentsMergeAndCover(t *testing.T) {
	// A full-stripe-aligned request yields one contiguous extent per
	// agent, and total extent bytes equal the request size.
	l := Layout{Unit: 4096, Agents: 3}
	sets := l.LocalExtents(0, 12*4096)
	var total int64
	for a, s := range sets {
		if s.Len() != 1 {
			t.Fatalf("agent %d extents = %d, want 1 (%s)", a, s.Len(), s.String())
		}
		total += s.Total()
	}
	if total != 12*4096 {
		t.Fatalf("total = %d", total)
	}
}

func TestLocalExtentsTotalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layouts()[rng.Intn(len(layouts()))]
		off := rng.Int63n(1 << 28)
		n := rng.Int63n(30*l.Unit) + 1
		var total int64
		for _, s := range l.LocalExtents(off, n) {
			total += s.Total()
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeFromFragmentsInvertsFragmentSizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layouts()[rng.Intn(len(layouts()))]
		size := rng.Int63n(50*l.Unit) + 1
		return l.SizeFromFragments(l.FragmentSizes(size)) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeFromFragmentsDegraded(t *testing.T) {
	// With one fragment unknown (-1), the size never overstates.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layouts()[rng.Intn(len(layouts()))]
		size := rng.Int63n(50*l.Unit) + 1
		frag := l.FragmentSizes(size)
		frag[rng.Intn(l.Agents)] = -1
		return l.SizeFromFragments(frag) <= size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeZeroAndEmpty(t *testing.T) {
	l := Layout{Unit: 4096, Agents: 3}
	if got := l.SizeFromFragments(l.FragmentSizes(0)); got != 0 {
		t.Fatalf("size(0) = %d", got)
	}
	if got := l.SizeFromFragments(nil); got != 0 {
		t.Fatalf("size(nil) = %d", got)
	}
}

func TestRowHelpers(t *testing.T) {
	l := Layout{Unit: 1000, Agents: 4, ParityUnits: 1}
	if l.RowBytes() != 3000 {
		t.Fatalf("row bytes = %d", l.RowBytes())
	}
	if l.RowOfGlobal(2999) != 0 || l.RowOfGlobal(3000) != 1 {
		t.Fatal("row of global wrong")
	}
	off, n := l.RowGlobalSpan(2)
	if off != 6000 || n != 3000 {
		t.Fatalf("row span = (%d,%d)", off, n)
	}
	if l.ParityLocal(5) != 5000 {
		t.Fatalf("parity local = %d", l.ParityLocal(5))
	}
}
