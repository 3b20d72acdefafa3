package core

// scanLimit is the number of discovered tuples up to which FindProvenance's
// BFS queue doubles as its visited set, searched linearly. A typical sink's
// contribution graph is a few dozen tuples, where a scan is cheaper than
// hashing interface values and needs no map allocation; a larger graph
// switches to a map once it outgrows the limit, keeping traversal linear.
const scanLimit = 32

// FindProvenance traverses the contribution graph rooted at root and returns
// its originating tuples (paper Definition 4.1): the tuples of kind SOURCE
// or REMOTE reachable through the U1/U2/N meta-attributes. It is a direct
// implementation of the breadth-first search of the paper's Listing 1.
//
// The returned slice preserves discovery (BFS) order, which is deterministic
// for a deterministic query execution. Each originating tuple appears once.
//
// A tuple of kind NONE (never instrumented, or instrumentation disabled) is
// treated as its own originating tuple so that traversal degrades gracefully
// when provenance capture is off.
func FindProvenance(root Tuple) []Tuple {
	// The result starts on the stack and is copied out once at the end.
	var resBuf [scanLimit]Tuple
	result := AppendProvenance(resBuf[:0], root)
	if len(result) == 0 {
		return nil
	}
	return append([]Tuple(nil), result...)
}

// AppendProvenance appends root's originating tuples to dst, in
// FindProvenance's order, and returns the extended slice. A caller that
// consumes the tuples before its next traversal can hand in a buffer of its
// own and so allocate nothing below scanLimit tuples.
func AppendProvenance(dst []Tuple, root Tuple) []Tuple {
	if root == nil {
		return dst
	}
	// The queue starts on the stack. Every tuple ever enqueued stays in it
	// (head walks it), so the queue is the visited set until visited takes
	// over past scanLimit.
	var queueBuf [scanLimit]Tuple
	result := dst
	queue := append(queueBuf[:0], root)
	var visited map[Tuple]struct{}

	enqueue := func(t Tuple) {
		if t == nil {
			return
		}
		if visited != nil {
			if _, ok := visited[t]; ok {
				return
			}
			visited[t] = struct{}{}
		} else {
			for _, q := range queue {
				if q == t {
					return
				}
			}
			if len(queue) == scanLimit {
				visited = make(map[Tuple]struct{}, 2*scanLimit)
				for _, q := range queue {
					visited[q] = struct{}{}
				}
				visited[t] = struct{}{}
			}
		}
		queue = append(queue, t)
	}

	for head := 0; head < len(queue); head++ {
		t := queue[head]
		m := MetaOf(t)
		if m == nil {
			result = append(result, t)
			continue
		}
		switch m.Kind() {
		case KindSource, KindRemote, KindNone:
			result = append(result, t)
		case KindMap, KindMultiplex:
			enqueue(m.U1())
		case KindJoin:
			enqueue(m.U1())
			enqueue(m.U2())
		case KindAggregate:
			enqueue(m.U2())
			// Walk the N chain from U2's successor up to (exclusive) U1.
			// When U1 == U2 the window holds a single tuple and there is
			// nothing to walk: U2's N may already point past the window,
			// set by a later overlapping window of the same group.
			if u2 := MetaOf(m.U2()); u2 != nil && m.U1() != m.U2() {
				for temp := u2.Next(); temp != nil && temp != m.U1(); {
					enqueue(temp)
					tm := MetaOf(temp)
					if tm == nil {
						break
					}
					temp = tm.Next()
				}
			}
			enqueue(m.U1())
		}
	}
	return result
}

// CountProvenance returns the number of originating tuples of root without
// materialising the result slice. It walks the same graph as FindProvenance.
func CountProvenance(root Tuple) int {
	return len(FindProvenance(root))
}

// Resolver maps a sink tuple to the source tuples contributing to it. The
// GeneaLog resolver traverses pointers; the baseline resolver consults its
// source store. Having both behind one interface lets the harness treat the
// two techniques symmetrically.
type Resolver interface {
	// Resolve returns the originating tuples of sink.
	Resolve(sink Tuple) []Tuple
}

// GenealogResolver resolves provenance by traversing the contribution graph
// (FindProvenance). The zero value is ready to use.
type GenealogResolver struct{}

var _ Resolver = GenealogResolver{}

// Resolve implements Resolver.
func (GenealogResolver) Resolve(sink Tuple) []Tuple { return FindProvenance(sink) }
