package query

import (
	"fmt"
	"strings"

	"genealog/internal/core"
	"genealog/internal/ops"
)

// This file is the physical query planner: after the builder's DAG
// validation and before streams and operators are materialised, the logical
// graph is rewritten into a physical plan. Three passes run when fusion is
// enabled (the default):
//
//  1. Fusion — maximal linear chains of stateless nodes (Map, Filter, and
//     pass-through Multiplex/Union) collapse into one ops.FusedChain that
//     applies the stages by direct function calls in a single goroutine,
//     eliminating the per-hop stream and goroutine the unfused chain pays.
//     Instrumenter hooks still fire once per logical stage, so contribution
//     graphs and sink bytes are identical to the unfused plan.
//
//  2. Parallel prefix/suffix absorption — a stateless chain feeding a
//     Parallel(n) Aggregate or Join is absorbed into the shard subgraph: the
//     partitioner hoists upstream of the chain and each lane's stateful
//     instance runs the chain's stages inline in its own input loop, so the
//     prefix work scales across cores instead of serialising on one
//     goroutine. Hoisting routes the pre-prefix tuples with the stateful
//     operator's own key when every chain stage forwards the tuple object
//     (no Map in the chain); a chain containing a Map is only hoisted onto
//     an aggregate whose first node declares Node.ShardKey, and never onto a
//     join (a lane join merges the pre-prefix streams by timestamp, so its
//     prefixes must preserve timestamps). Symmetrically, the stateless chain
//     consuming a shard subgraph's output is folded into its fan-in, running
//     inline in the merge loop.
//
//  3. Vectorization — physical segments whose every stage declares a
//     kernel-capable ColSpec (Filter/Map kernels plus a schema) execute as
//     ops.ColChain operators over struct-of-arrays column batches instead of
//     tuple-at-a-time closures; stateful nodes with a declared AggColSpec or
//     JoinColSpec run their typed fold/probe kernels over columnar window
//     state, serially or inside every shard lane, where an aggregate's
//     hoisted prefix joins the columnar span when it is itself fully
//     kernel-capable; and partitioners whose routing key has a declared Key
//     kernel extract batch routing keys vectorized. This pass runs whenever
//     WithVectorize is on — also with fusion off, where lone declared
//     operators still vectorize individually.
//
// Every stateful node materialises as ops.ColAggregate or ops.ColJoin,
// whichever passes run: a node pass 3 did not select runs the spec ops
// derives from its row closures (ops.DeriveAggColSpec/DeriveJoinColSpec),
// and a hoisted aggregate prefix without kernels runs inside it as row
// stages.
//
// Before the passes, the planner decides per Multiplex whether its branches
// share the input object or receive linked copies (decideMultiplexClones).
//
// With fusion disabled every logical node materialises as its own operator,
// the pre-planner behaviour; with vectorization disabled every operator runs
// its row closures. All passes are purely physical: sink bytes and
// contribution graphs never change.

// physKind classifies a physical plan node.
type physKind uint8

const (
	// physSingle materialises one logical node as one operator.
	physSingle physKind = iota + 1
	// physFused materialises a stateless chain as one ops.FusedChain.
	physFused
	// physShard materialises a Parallel(n) stateful node as its shard
	// subgraph (partitioner(s), lanes, fan-in), absorbing hoisted prefixes.
	physShard
)

// physNode is one vertex of the physical plan; it owns one or more logical
// nodes.
type physNode struct {
	kind  physKind
	node  *Node   // the logical node (single/shard); the chain head (fused)
	chain []*Node // fused: the stage nodes, upstream first

	// vec marks a segment selected for the columnar runtime (pass 3): a
	// fused chain, a single declared stateless node, or a stateful node
	// (serial or sharded) with a declared fold/probe spec.
	vec bool

	// shard only: hoisted prefix chains by input port (PortDefault for
	// aggregates, PortLeft/PortRight for joins), and the stateless suffix
	// chain folded into the fan-in.
	prefix map[string][]*Node
	suffix []*Node
}

// name returns the physical node's display name (stream names, plan dumps).
func (p *physNode) name() string {
	if p.kind != physFused {
		return p.node.name
	}
	names := make([]string, len(p.chain))
	for i, n := range p.chain {
		names[i] = n.name
	}
	if p.vec {
		return "vec[" + strings.Join(names, "+") + "]"
	}
	return "fused[" + strings.Join(names, "+") + "]"
}

// stageNodes returns the logical nodes a vectorized segment executes: the
// chain (fused) or the lone node (single).
func (p *physNode) stageNodes() []*Node {
	if p.kind == physFused {
		return p.chain
	}
	return []*Node{p.node}
}

// physEdge is one stream of the physical plan.
type physEdge struct {
	from, to *physNode
	port     string
}

// physPlan is the rewritten graph Build materialises.
type physPlan struct {
	nodes []*physNode
	edges []physEdge
	owner map[*Node]*physNode

	fusedChains        int // standalone FusedChain operators
	hoistedPrefixes    int // chains replicated into shard lanes
	fusedSuffixes      int // chains folded into shard fan-ins
	vectorizedSegments int // segments selected for the columnar runtime
	vectorizedStateful int // of which stateful (ColAggregate/ColJoin state)
}

// plan rewrites the validated logical graph into a physical plan.
func (b *Builder) plan() *physPlan {
	pl := &physPlan{owner: make(map[*Node]*physNode, len(b.nodes))}
	inE := make(map[*Node][]edge, len(b.nodes))
	outE := make(map[*Node][]edge, len(b.nodes))
	for _, e := range b.edges {
		inE[e.to] = append(inE[e.to], e)
		outE[e.from] = append(outE[e.from], e)
	}
	b.decideMultiplexClones(outE)

	var chains [][]*Node
	chainByTail := make(map[*Node][]*Node)
	if b.fusion {
		chains = b.findChains(inE, outE)
		for _, c := range chains {
			chainByTail[c[len(c)-1]] = c
		}
	}

	// Pass 2: absorb chains feeding shard-parallel stateful nodes.
	absorbed := make(map[*Node]*physNode)   // chain member -> shard node
	absorbedPort := make(map[*Node]string)  // chain head -> shard input port
	shardNodes := make(map[*Node]*physNode) // stateful node -> its phys node
	for _, n := range b.nodes {
		if n.Parallelism <= 1 {
			continue
		}
		pn := &physNode{kind: physShard, node: n, prefix: make(map[string][]*Node)}
		shardNodes[n] = pn
		if !b.fusion {
			continue
		}
		for _, e := range inE[n] {
			c := chainByTail[e.from]
			if c == nil {
				continue
			}
			port, ok := hoistPort(n, e.port, c)
			if !ok {
				continue
			}
			if _, dup := pn.prefix[port]; dup {
				continue // one prefix per input port
			}
			pn.prefix[port] = c
			pl.hoistedPrefixes++
			for _, m := range c {
				absorbed[m] = pn
			}
			absorbedPort[c[0]] = port
			delete(chainByTail, e.from)
		}
	}

	// Pass 2.5: fold the stateless chain consuming a shard subgraph's output
	// into its fan-in. Prefix absorption ran first and wins — a chain between
	// two shard-parallel stateful nodes hoists into the downstream one's
	// lanes (where it parallelises) rather than fusing into the upstream
	// fan-in (where it would serialise).
	if b.fusion {
		chainByHead := make(map[*Node][]*Node, len(chainByTail))
		for _, c := range chainByTail {
			chainByHead[c[0]] = c
		}
		for _, n := range b.nodes {
			pn := shardNodes[n]
			if pn == nil || len(outE[n]) != 1 {
				continue
			}
			e := outE[n][0]
			if e.port != PortDefault {
				continue
			}
			c := chainByHead[e.to]
			if c == nil {
				continue
			}
			pn.suffix = c
			pl.fusedSuffixes++
			for _, m := range c {
				absorbed[m] = pn
			}
			delete(chainByTail, c[len(c)-1])
		}
	}

	// Assign every logical node to its physical node, in b.nodes order.
	fusedByHead := make(map[*Node][]*Node)
	inChain := make(map[*Node]bool)
	for _, c := range chainByTail {
		if len(c) < 2 {
			continue // a lone stateless node gains nothing from fusing
		}
		fusedByHead[c[0]] = c
		for _, m := range c {
			inChain[m] = true
		}
		pl.fusedChains++
	}
	for _, n := range b.nodes {
		if pn := absorbed[n]; pn != nil {
			pl.owner[n] = pn
			continue
		}
		if pn := shardNodes[n]; pn != nil {
			pl.owner[n] = pn
			pl.nodes = append(pl.nodes, pn)
			continue
		}
		if c := fusedByHead[n]; c != nil {
			pn := &physNode{kind: physFused, node: n, chain: c}
			for _, m := range c {
				pl.owner[m] = pn
			}
			pl.nodes = append(pl.nodes, pn)
			continue
		}
		if inChain[n] {
			continue // owned by the chain rooted at its head
		}
		pn := &physNode{kind: physSingle, node: n}
		pl.owner[n] = pn
		pl.nodes = append(pl.nodes, pn)
	}

	// Pass 3: select the columnar runtime for fully kernel-capable segments.
	// Stateful nodes with a declared fold/probe spec vectorize too — serial
	// ones as standalone ColAggregate/ColJoin operators, sharded ones lane by
	// lane. A sharded aggregate's hoisted prefix runs *inside* the columnar
	// operator, so it must itself be fully kernel-capable (or absent) for the
	// lane to vectorize; join lane prefixes stay row stages (the join's merge
	// consumes tuple-at-a-time) and never block vectorization.
	if b.vectorize {
		for _, pn := range pl.nodes {
			switch pn.kind {
			case physFused:
				if allColCapable(pn.chain) {
					pn.vec = true
					pl.vectorizedSegments++
				}
			case physSingle:
				switch {
				case colCapable(pn.node):
					pn.vec = true
					pl.vectorizedSegments++
				case statefulColCapable(pn.node):
					pn.vec = true
					pl.vectorizedSegments++
					pl.vectorizedStateful++
				}
			case physShard:
				if !statefulColCapable(pn.node) {
					continue
				}
				if pn.node.kind == KindAggregate {
					if c := pn.prefix[PortDefault]; len(c) > 0 && !allColCapable(c) {
						continue
					}
				}
				pn.vec = true
				pl.vectorizedSegments++
				pl.vectorizedStateful++
			}
		}
	}

	// Physical edges: logical edges between distinct physical nodes. An edge
	// into an absorbed chain head feeds the shard subgraph directly and takes
	// over the chain's original input port on the stateful node.
	for _, e := range b.edges {
		from, to := pl.owner[e.from], pl.owner[e.to]
		if from == to {
			continue // fused away or internal to a shard subgraph
		}
		port := e.port
		if p, ok := absorbedPort[e.to]; ok {
			port = p
		}
		pl.edges = append(pl.edges, physEdge{from: from, to: to, port: port})
	}
	return pl
}

// forwards reports whether a node of kind k may hand an input object on
// unchanged: Filter, Union and Multiplex always do (a Multiplex at least when
// it shares), a Map does when it emits its input.
func forwards(k NodeKind) bool {
	switch k {
	case KindFilter, KindUnion, KindMultiplex, KindMap:
		return true
	default:
		return false
	}
}

// decideMultiplexClones sets every Multiplex node's clone decision. GL writes
// one meta-attribute after a tuple is created: N, by the single Aggregate
// that buffers it (paper §4.1). Branches may therefore share one object
// unless two of them could write it. For every node creating objects (every
// node that does not forward its input), the walk follows its outputs
// through forwarding nodes and counts, per path, the arrivals at a possible
// writer: an Aggregate (N) or a Custom node not declared ReadOnly (unknown
// writes). Sinks, Joins and ReadOnly Customs (Send, the provenance
// collector) only read. A Map's own
// outputs need no walk of their own: any walk reaching the Map covers them.
// Each Multiplex takes the largest count of the walks through it, and the
// instrumenter turns it into the decision: NP never clones, GL clones from
// two writers up, BL always clones. Counting paths rather than nodes makes a
// diamond (mux -> filter/filter -> union -> Aggregate) count two: one object
// taking both paths would be buffered twice.
func (b *Builder) decideMultiplexClones(outE map[*Node][]edge) {
	// Counts saturate at two: the decision only tells 0, 1 and more apart.
	// Both slices hold count+1 per node index, 0 meaning not yet visited.
	const many = 2
	below := make([]int8, len(b.nodes)) // writer paths from a forwarder down
	walk := make([]int8, len(b.nodes))  // largest count of the walks through it
	var count func(n *Node) int8        // writer paths of an object entering n
	sumOut := func(n *Node) int8 {      // writer paths of an object n emits
		var w int8
		for _, e := range outE[n] {
			if w += count(e.to); w >= many {
				return many
			}
		}
		return w
	}
	count = func(n *Node) int8 {
		switch {
		case n.kind == KindAggregate || n.kind == KindCustom && !n.readOnly:
			return 1
		case !forwards(n.kind):
			return 0
		case below[n.idx] == 0:
			below[n.idx] = sumOut(n) + 1
		}
		return below[n.idx] - 1
	}
	var mark func(n *Node, w int8)
	mark = func(n *Node, w int8) {
		if !forwards(n.kind) || walk[n.idx] > w {
			return // not a forwarder, or already reached by a walk counting >= w
		}
		walk[n.idx] = w + 1
		for _, e := range outE[n] {
			mark(e.to, w)
		}
	}
	for _, n := range b.nodes {
		if forwards(n.kind) {
			continue
		}
		w := sumOut(n)
		for _, e := range outE[n] {
			mark(e.to, w)
		}
	}
	for _, n := range b.nodes {
		if n.kind == KindMultiplex {
			n.clone = b.instr.NeedsMultiplexClone(max(int(walk[n.idx])-1, 0))
		}
	}
}

// stateful reports whether nodes of kind k keep window state.
func (k NodeKind) stateful() bool { return k == KindAggregate || k == KindJoin }

// kindDesc renders a logical node's kind for plan dumps, marking a
// Multiplex that forwards the same object to every branch.
func kindDesc(n *Node) string {
	if n.kind == KindMultiplex && !n.clone {
		return "multiplex shared"
	}
	return n.kind.String()
}

// colCapable reports whether a logical node declares the vectorized kernel
// its kind needs (see ColSpec).
func colCapable(n *Node) bool {
	if n.colSpec == nil || n.colSpec.Schema == nil {
		return false
	}
	switch n.kind {
	case KindMap:
		return n.colSpec.Map != nil
	case KindFilter:
		return n.colSpec.Filter != nil
	default:
		return false
	}
}

// statefulColCapable reports whether a stateful logical node declares a
// columnar spec ops accepts for it (see AggColSpec/JoinColSpec), so the
// planner falls back to the derived spec on an incomplete one instead of
// panicking at materialisation.
func statefulColCapable(n *Node) bool {
	switch n.kind {
	case KindAggregate:
		return n.aggCol != nil && n.aggCol.ops().Validate(n.aggSpec) == nil
	case KindJoin:
		return n.joinCol != nil && n.joinCol.ops().Validate(n.joinSpec) == nil
	default:
		return false
	}
}

// allColCapable reports whether every node of a chain can vectorize.
func allColCapable(c []*Node) bool {
	for _, n := range c {
		if !colCapable(n) {
			return false
		}
	}
	return true
}

// fusible reports whether a logical node can be a fused chain stage: a
// stateless per-tuple operator with exactly one default-port input and one
// output.
func fusible(n *Node, inE, outE map[*Node][]edge) bool {
	if n.Parallelism > 1 {
		return false
	}
	switch n.kind {
	case KindMap, KindFilter:
	case KindMultiplex:
		// A multi-branch Multiplex duplicates the stream; only the
		// single-branch (pass-through) case is linear.
	case KindUnion:
		// A multi-input Union merges streams; only the single-input
		// (pass-through) case is linear.
	default:
		return false
	}
	return len(inE[n]) == 1 && len(outE[n]) == 1 && inE[n][0].port == PortDefault
}

// findChains returns the maximal linear chains of fusible nodes, upstream
// first. Chains of length one are returned too: they fuse with nothing but
// may still hoist into a shard subgraph.
func (b *Builder) findChains(inE, outE map[*Node][]edge) [][]*Node {
	linked := func(a, c *Node) bool { // a's only output feeds c's only input
		return outE[a][0].to == c && outE[a][0].port == PortDefault
	}
	var chains [][]*Node
	for _, n := range b.nodes {
		if !fusible(n, inE, outE) {
			continue
		}
		if pred := inE[n][0].from; fusible(pred, inE, outE) && linked(pred, n) {
			continue // not a chain head
		}
		c := []*Node{n}
		for cur := n; ; {
			next := outE[cur][0].to
			if !fusible(next, inE, outE) || !linked(cur, next) {
				break
			}
			c = append(c, next)
			cur = next
		}
		chains = append(chains, c)
	}
	return chains
}

// hoistPort decides whether a chain feeding shard-parallel stateful node n
// on edge port eport may hoist, and onto which shard input port.
func hoistPort(n *Node, eport string, c []*Node) (port string, ok bool) {
	var specKey func(core.Tuple) string
	switch n.kind {
	case KindAggregate:
		if eport != PortDefault {
			return "", false
		}
		port, specKey = PortDefault, n.aggSpec.Key
	case KindJoin:
		switch eport {
		case PortLeft:
			port, specKey = PortLeft, n.joinSpec.LeftKey
		case PortRight:
			port, specKey = PortRight, n.joinSpec.RightKey
		default:
			return "", false
		}
	default:
		return "", false
	}
	if specKey == nil {
		return "", false // unkeyed: not shardable, Build will reject it
	}
	for _, m := range c {
		if m.kind != KindMap {
			continue
		}
		// A Map creates new tuples: the stateful key function may not apply
		// to the pre-prefix stream, and the new tuples may carry new
		// timestamps. A join lane merges its two pre-prefix streams by
		// timestamp, so a timestamp-shifting prefix would reorder its
		// matches — Maps never hoist onto a join.
		if n.kind == KindJoin {
			return "", false
		}
		// Onto an aggregate, only with the head declaring the pre-prefix
		// partition key.
		if c[0].ShardKey == nil {
			return "", false
		}
		return port, true
	}
	// Filter and pass-through stages forward the tuple object (or a
	// payload-identical clone) with its timestamp, so the chain hoists —
	// routed by the declared head key if any, else by the stateful
	// operator's own key applied to the pre-prefix stream.
	return port, true
}

// stageFor translates a logical chain node into its fused stage.
func stageFor(n *Node) ops.FusedStage {
	switch n.kind {
	case KindMap:
		return ops.FusedStage{Name: n.name, Kind: ops.StageMap, Map: n.mapFn}
	case KindFilter:
		return ops.FusedStage{Name: n.name, Kind: ops.StageFilter, Pred: n.pred}
	case KindMultiplex:
		if !n.clone {
			return ops.FusedStage{Name: n.name, Kind: ops.StagePass}
		}
		return ops.FusedStage{Name: n.name, Kind: ops.StageMultiplex}
	case KindUnion:
		return ops.FusedStage{Name: n.name, Kind: ops.StagePass}
	default:
		panic(fmt.Sprintf("planner: node %q (%s) is not a fusible stage", n.name, n.kind))
	}
}

// stagesFor translates a chain into its fused stage list.
func stagesFor(c []*Node) []ops.FusedStage {
	stages := make([]ops.FusedStage, len(c))
	for i, n := range c {
		stages[i] = stageFor(n)
	}
	return stages
}

// colStageFor translates a declared logical chain node into its columnar
// stage.
func colStageFor(n *Node) ops.ColStage {
	st := ops.ColStage{Name: n.name, Schema: n.colSpec.Schema}
	switch n.kind {
	case KindMap:
		st.Kind, st.Map = ops.StageMap, n.colSpec.Map
	case KindFilter:
		st.Kind, st.Filter = ops.StageFilter, n.colSpec.Filter
	default:
		panic(fmt.Sprintf("planner: node %q (%s) is not a vectorizable stage", n.name, n.kind))
	}
	return st
}

// colStagesFor translates a vectorized segment into its columnar stage list.
func colStagesFor(c []*Node) []ops.ColStage {
	stages := make([]ops.ColStage, len(c))
	for i, n := range c {
		stages[i] = colStageFor(n)
	}
	return stages
}

// aggColSpec returns the columnar spec an Aggregate node runs on: its
// declared one when pass 3 selected it, else the one ops derives from the
// node's row closures.
func (p *physNode) aggColSpec() ops.AggColSpec {
	if p.vec {
		return p.node.aggCol.ops()
	}
	return ops.DeriveAggColSpec(p.node.aggSpec)
}

// joinColSpec returns the columnar spec a Join node runs on: its declared
// one when pass 3 selected it, else the one ops derives from the node's row
// predicate.
func (p *physNode) joinColSpec() ops.JoinColSpec {
	if p.vec {
		return p.node.joinCol.ops()
	}
	return ops.DeriveJoinColSpec(p.node.joinSpec)
}

// shardPrefixFor builds the ops.ShardPrefix for one hoisted chain (nil when
// the port has none).
func (p *physNode) shardPrefixFor(port string) *ops.ShardPrefix {
	c := p.prefix[port]
	if c == nil {
		return nil
	}
	names := make([]string, len(c))
	for i, n := range c {
		names[i] = n.name
	}
	// ops defaults the partitioner's routing key to the stateful spec's own
	// key; only a head-declared ShardKey needs passing down explicitly.
	return &ops.ShardPrefix{
		Name:   strings.Join(names, "+"),
		Stages: stagesFor(c),
		Key:    c[0].ShardKey,
	}
}

// shardSuffix builds the ops.ShardSuffix of the chain folded into the
// fan-in (nil when there is none).
func (p *physNode) shardSuffix() *ops.ShardSuffix {
	if len(p.suffix) == 0 {
		return nil
	}
	names := make([]string, len(p.suffix))
	for i, n := range p.suffix {
		names[i] = n.name
	}
	return &ops.ShardSuffix{
		Name:   strings.Join(names, "+"),
		Stages: stagesFor(p.suffix),
	}
}

// render formats the physical plan as the Query.Explain dump.
func (pl *physPlan) render(queryName string, fusion, vectorize bool) string {
	var sb strings.Builder
	state := "on"
	if !fusion {
		state = "off"
	}
	vstate := "on"
	if !vectorize {
		vstate = "off"
	}
	fmt.Fprintf(&sb, "physical plan %q (fusion %s, vectorize %s, %d operator groups)\n", queryName, state, vstate, len(pl.nodes))
	width := 0
	for _, pn := range pl.nodes {
		if n := len(pn.name()); n > width {
			width = n
		}
	}
	for _, pn := range pl.nodes {
		fmt.Fprintf(&sb, "  %-*s  %s\n", width, pn.name(), pn.describe())
	}
	return sb.String()
}

// describe renders one physical node's right-hand plan column.
func (p *physNode) describe() string {
	switch p.kind {
	case physFused:
		parts := make([]string, len(p.chain))
		for i, n := range p.chain {
			parts[i] = fmt.Sprintf("%s %s", kindDesc(n), n.name)
		}
		if p.vec {
			return "vectorized chain: " + strings.Join(parts, " => ")
		}
		return "fused chain: " + strings.Join(parts, " => ")
	case physShard:
		n := p.node
		desc := fmt.Sprintf("%s x%d: partition -> %d instances -> merge", n.kind, n.Parallelism, n.Parallelism)
		if p.vec {
			desc = fmt.Sprintf("%s x%d: partition -> %d x vec[%s] -> merge", n.kind, n.Parallelism, n.Parallelism, n.name)
		}
		if len(p.prefix) > 0 {
			var hoists []string
			for _, port := range []string{PortDefault, PortLeft, PortRight} {
				c, ok := p.prefix[port]
				if !ok {
					continue
				}
				names := make([]string, len(c))
				for i, m := range c {
					names[i] = m.name
				}
				label := strings.Join(names, "+")
				if port != PortDefault {
					label = port + ": " + label
				}
				hoists = append(hoists, label)
			}
			// The lane rendering shows how far the columnar span reaches: an
			// aggregate lane runs prefix and window state inside one vec[...]
			// operator; a join lane keeps row prefixes in front of the
			// vectorized window state.
			lane := "(prefix => " + n.name + ")"
			if p.vec {
				if n.kind == KindAggregate {
					lane = "vec[prefix => " + n.name + "]"
				} else {
					lane = "(prefix => vec[" + n.name + "])"
				}
			}
			desc = fmt.Sprintf("%s x%d: partition(hoisted above %s) -> %d x %s -> merge",
				n.kind, n.Parallelism, strings.Join(hoists, "; "), n.Parallelism, lane)
		}
		if len(p.suffix) > 0 {
			names := make([]string, len(p.suffix))
			for i, m := range p.suffix {
				names[i] = m.name
			}
			desc += fmt.Sprintf(" => inline suffix %s", strings.Join(names, "+"))
		}
		return desc
	default:
		if p.vec {
			return p.node.kind.String() + " (vectorized)"
		}
		return kindDesc(p.node)
	}
}
