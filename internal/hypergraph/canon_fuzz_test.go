package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fuzzNodes are the node IDs a fuzz byte selects from: negative, single-
// and multi-digit IDs, more of them than canon's inline buffer holds.
var fuzzNodes = []NodeID{-12, -1, 0, 1, 2, 3, 4, 5, 6, 9, 10, 42, 1000, 123456}

// refCanon is the reference canonical set: deduplicated through a map,
// then sorted.
func refCanon(ids []NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refKey is the fmt-based key formatter the graph used before keys were
// built with strconv; Edge.Key must match it byte for byte, because the
// key order of Edges() reaches reports.
func refKey(sources, dests []NodeID) EdgeKey {
	var b strings.Builder
	for i, s := range sources {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteString("->")
	for i, d := range dests {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	return EdgeKey(b.String())
}

func fuzzIDs(bs []byte) []NodeID {
	out := make([]NodeID, len(bs))
	for i, b := range bs {
		out[i] = fuzzNodes[int(b)%len(fuzzNodes)]
	}
	return out
}

// FuzzEdgeCanon checks Edge's canonicalization and key against the
// reference: two calls return the same *Edge exactly when their sorted,
// deduplicated sets are equal; Edge.Key equals refKey of those sets; the
// stored sets are the canonical ones; and Lookup agrees with Edge. The
// second call's lists are the first's reversed and doubled, so every input
// also checks permutation and duplicate invariance.
func FuzzEdgeCanon(f *testing.F) {
	f.Add([]byte{0}, []byte{1, 2}, []byte{1}, []byte{2})
	f.Add([]byte{3, 3, 1}, []byte{2, 1, 2}, []byte{1, 3}, []byte{1, 2})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, []byte{13, 12, 11}, []byte{}, []byte{9})
	f.Add([]byte{12, 13}, []byte{0, 0, 0}, []byte{13, 12, 12}, []byte{0})
	f.Fuzz(func(t *testing.T, srcA, dstA, srcB, dstB []byte) {
		const maxLen = 32
		for _, bs := range [][]byte{srcA, dstA, srcB, dstB} {
			if len(bs) > maxLen {
				t.Skip()
			}
		}
		g := New("fuzz")
		for _, id := range fuzzNodes {
			g.AddNode(id, fmt.Sprint(id))
		}
		sa, da := fuzzIDs(srcA), fuzzIDs(dstA)
		sb, db := fuzzIDs(srcB), fuzzIDs(dstB)

		if _, ok := g.Lookup(sa, da); ok {
			t.Fatal("Lookup found an edge in an empty graph")
		}
		ea := g.Edge(sa, da)
		if want := refKey(refCanon(sa), refCanon(da)); ea.Key != want {
			t.Fatalf("Key = %q, reference %q", ea.Key, want)
		}
		if !slices.Equal(ea.Sources, refCanon(sa)) || !slices.Equal(ea.Dests, refCanon(da)) {
			t.Fatalf("sets %v -> %v, reference %v -> %v", ea.Sources, ea.Dests, refCanon(sa), refCanon(da))
		}

		// A permuted, duplicated spelling of the same sets finds ea.
		perm := func(ids []NodeID) []NodeID {
			r := slices.Clone(ids)
			slices.Reverse(r)
			return append(r, ids...)
		}
		if e := g.Edge(perm(sa), perm(da)); e != ea {
			t.Fatalf("permuted sets made a second edge %q beside %q", e.Key, ea.Key)
		}

		same := slices.Equal(refCanon(sa), refCanon(sb)) && slices.Equal(refCanon(da), refCanon(db))
		lb, found := g.Lookup(sb, db)
		if found != same || (found && lb != ea) {
			t.Fatalf("Lookup(%v, %v) = %v, %v; want found=%v", sb, db, lb, found, same)
		}
		eb := g.Edge(sb, db)
		if (eb == ea) != same {
			t.Fatalf("Edge identity %v for sets %v->%v and %v->%v, want %v", eb == ea, sa, da, sb, db, same)
		}
		if want := refKey(refCanon(sb), refCanon(db)); eb.Key != want {
			t.Fatalf("Key = %q, reference %q", eb.Key, want)
		}
		if e, ok := g.Lookup(perm(sb), perm(db)); !ok || e != eb {
			t.Fatalf("Lookup disagrees with Edge for %q", eb.Key)
		}
		wantEdges := 2
		if same {
			wantEdges = 1
		}
		if g.NumEdges() != wantEdges {
			t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), wantEdges)
		}
	})
}
