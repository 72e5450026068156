"""Field-sensitive Andersen's (inclusion-based) pointer analysis.

Abstract domain
---------------

Nodes are strings:

* ``tmp:<fn>:%tN``   — a temp (virtual register) in function ``fn``
* ``loc:<fn>:v``     — the stack slot of local/param ``v`` (abstract object)
* ``loc:<fn>:v#f``   — field ``f`` of struct local ``v`` (field-sensitive)
* ``glob:g``         — a global variable's storage
* ``func:f``         — function ``f`` as an abstract object (for function
  pointers)
* ``arg:<fn>#i`` / ``ret:<fn>`` — parameter/return conduits used to wire
  calls inter-procedurally within the module (the paper analyses one
  bitcode file at a time; so do we)

Constraints, extracted from the IR:

* ``AddrOf t, &v``      → ``{loc(v)} ⊆ pts(t)``  (base constraint)
* ``Load t, &v``        → copy ``loc(v) → t``
* ``Store val → &v``    → copy ``val → loc(v)``
* ``Load t, *(p)``      → ∀ o ∈ pts(p): copy ``o → t``     (complex)
* ``Store val → *(p)``  → ∀ o ∈ pts(p): copy ``val → o``   (complex)
* ``p->f`` variants use the field child ``o#f`` of each pointee
* calls copy argument values into ``arg:callee#i`` and ``ret:callee``
  into the destination; indirect calls resolve through ``func:*`` pointees

Arrays are smashed (one abstract object per array).

Solver representation
---------------------

The string node names above are the *external* vocabulary only.  The
solver interns every node into a dense integer id through a
:class:`NodeTable` the moment it is first mentioned, and from then on:

* **points-to sets are int bitmasks** — bit *i* set means "points to the
  object interned as id *i*".  Merging a delta is one ``|``; computing
  the genuinely-new part is one ``& ~``; sets share representation
  freely because ints are immutable (copy-on-write for free), and the
  result layer interns each distinct bitmask to a single ``frozenset``
  view so equal sets are materialised once.
* **cycles collapse online** — a union-find over the copy graph merges
  every strongly connected component into one representative node.  A
  full Tarjan pass after constraint construction collapses static
  cycles; during propagation, amortised sweeps re-run Tarjan over the
  condensed graph whenever complex constraints have inserted new copy
  edges (only a new edge can close a new cycle) and enough pops have
  elapsed — per-edge lazy triggers degrade quadratically on saturated
  acyclic chains.  Long copy cycles — which the difference-propagation
  reference walks pointee by pointee, node by node — become a single
  ``|`` into one representative.
* **the worklist is topologically ordered** — nodes are prioritised by
  the (reverse post-) order of the collapsed copy DAG, so pointees flow
  source-to-sink and each node is typically popped O(1) times.

The reference implementation this replaced (string keys, dict-of-set
difference propagation, no collapsing) is retained verbatim in
:mod:`repro.pointer.andersen_reference`; the differential property test
holds the two to identical fixpoints, and ``stages.solver`` in the BENCH
trajectory holds this solver to a ≥10× speedup over it.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.ir.instructions import (
    AddrOf,
    Address,
    BinOp,
    Call,
    CastOp,
    DerefAddr,
    ElementAddr,
    FieldAddr,
    GlobalAddr,
    Load,
    Ret,
    Select,
    Store,
    UnOp,
    VarAddr,
)
from repro.ir.module import Function, Module
from repro.ir.values import ConstInt, ConstStr, FuncRef, ParamValue, Temp, Undef, Value

Node = str

# Worklist-pop budget: a backstop against pathological constraint systems.
# With difference propagation each (node, pointee) pair is popped O(1)
# times, so real modules converge far below this.  Hitting it clears
# ``AndersenResult.converged``; the engine records the event in the run's
# metrics registry and propagates the flag into ``Report.converged``.
ITERATION_LIMIT = 200_000

_FUNC_PREFIX = "func:"


def temp_node(function: str, temp: Temp) -> Node:
    return f"tmp:{function}:%t{temp.id}"


def loc_node(function: str, var: str) -> Node:
    return f"loc:{function}:{var}"


def global_node(name: str) -> Node:
    return f"glob:{name}"


def func_node(name: str) -> Node:
    return f"func:{name}"


def arg_node(function: str, index: int) -> Node:
    return f"arg:{function}#{index}"


def ret_node(function: str) -> Node:
    return f"ret:{function}"


def field_child(obj: Node, field_name: str) -> Node:
    return f"{obj}#{field_name}"


# Shared sentinel for pointer-free nodes: ``pts`` misses are frequent on
# hot paths (the alias check probes every candidate variable), so a fresh
# set per miss is pure allocation churn.  Frozen so no caller can mutate
# converged solver state by accident.
_EMPTY_PTS: frozenset[Node] = frozenset()


class NodeTable:
    """Interns string node names to dense integer ids.

    Ids are assigned in first-mention order, which the IR walk makes
    deterministic — the same module always produces the same table, so
    bitmask values (and everything derived from them) are reproducible
    across runs and cache replays.
    """

    __slots__ = ("ids", "names")

    def __init__(self) -> None:
        self.ids: dict[Node, int] = {}
        self.names: list[Node] = []

    def intern(self, name: Node) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.ids[name] = nid
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: Node) -> bool:
        return name in self.ids


def _bits_to_ids(bits: int) -> list[int]:
    """Set bit positions of ``bits``, ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


class AndersenResult:
    """Converged points-to information plus client query helpers.

    Backed by the solver's interned state: queries translate string
    nodes through the :class:`NodeTable` and answer from bitmasks.
    ``pts`` returns immutable ``frozenset`` views, interned per distinct
    bitmask — callers can never corrupt the converged solver state.
    """

    __slots__ = (
        "module",
        "indirect_callees",
        "converged",
        "iterations",
        "nodes",
        "scc_collapsed",
        "_table",
        "_parent",
        "_pts_bits",
        "_pointed_bits",
        "_views",
        "_points_to",
    )

    def __init__(
        self,
        module: Module | None = None,
        table: NodeTable | None = None,
        parent: list[int] | None = None,
        pts_bits: list[int] | None = None,
        pointed_bits: int = 0,
        indirect_callees: dict[int, list[str]] | None = None,
        converged: bool = True,
        iterations: int = 0,
        scc_collapsed: int = 0,
    ):
        self.module = module
        self._table = table if table is not None else NodeTable()
        self._parent = parent if parent is not None else []
        self._pts_bits = pts_bits if pts_bits is not None else []
        self._pointed_bits = pointed_bits
        # Resolved callee names for each indirect Call, keyed by uid.
        self.indirect_callees = indirect_callees if indirect_callees is not None else {}
        # False when the solver hit its iteration limit before reaching a
        # fixpoint — points-to sets are then an under-approximation.
        self.converged = converged
        # Worklist pops the solver spent reaching (or abandoning) the
        # fixpoint; feeds the `andersen.iterations` histogram.  Pops are
        # counted over the *collapsed* graph, so the number stays
        # proportional to real propagation work after SCC merging.
        self.iterations = iterations
        # Distinct nodes interned / nodes merged away by cycle collapsing;
        # feed the `andersen.bitset_nodes` / `andersen.scc_collapsed`
        # metrics.
        self.nodes = len(self._table)
        self.scc_collapsed = scc_collapsed
        # Bitmask -> frozenset view interning: equal sets share one view.
        self._views: dict[int, frozenset[Node]] = {}
        self._points_to: dict[Node, frozenset[Node]] | None = None

    # -- interned lookups ------------------------------------------------

    def _rep(self, nid: int) -> int:
        parent = self._parent
        while parent[nid] != nid:
            nid = parent[nid]
        return nid

    def _bits_of(self, node: Node) -> int:
        nid = self._table.ids.get(node)
        if nid is None:
            return 0
        return self._pts_bits[self._rep(nid)]

    def _view(self, bits: int) -> frozenset[Node]:
        if not bits:
            return _EMPTY_PTS
        view = self._views.get(bits)
        if view is None:
            names = self._table.names
            view = frozenset(names[i] for i in _bits_to_ids(bits))
            self._views[bits] = view
        return view

    # -- public queries --------------------------------------------------

    @property
    def points_to(self) -> dict[Node, frozenset[Node]]:
        """Every node with a non-empty points-to set, as immutable views
        (materialised lazily; mutating the returned dict cannot touch
        solver state)."""
        if self._points_to is None:
            out: dict[Node, frozenset[Node]] = {}
            pts_bits = self._pts_bits
            for name, nid in self._table.ids.items():
                bits = pts_bits[self._rep(nid)]
                if bits:
                    out[name] = self._view(bits)
            self._points_to = out
        return self._points_to

    def pts(self, node: Node) -> frozenset[Node]:
        return self._view(self._bits_of(node))

    def pts_of_var(self, function: Function | str, var: str) -> frozenset[Node]:
        name = function if isinstance(function, str) else function.name
        return self.pts(loc_node(name, var))

    def is_pointed_to(self, function: Function | str, var: str) -> bool:
        """Paper §4.1: a definition variable included in another pointer's
        points-to set may be used through indirect reference.  (A node
        whose only pointer is itself does not count.)"""
        name = function if isinstance(function, str) else function.name
        ids = self._table.ids
        pointed = self._pointed_bits
        base = var.split("#", 1)[0]
        nid = ids.get(loc_node(name, base))
        if nid is not None and (pointed >> nid) & 1:
            return True
        if base != var:
            nid = ids.get(loc_node(name, var))
            if nid is not None and (pointed >> nid) & 1:
                return True
        return False

    def callees_of(self, call: Call) -> list[str]:
        if call.callee is not None:
            return [call.callee]
        return self.indirect_callees.get(call.uid, [])


class _Solver:
    """Interned-bitset difference-propagation solver with SCC collapsing.

    Per-node state lives in parallel lists indexed by interned id; all
    of it (points-to mask, pending delta mask, copy successors, complex
    constraints) is owned by the node's union-find *representative*, so
    collapsing a cycle concatenates a few lists and ORs two ints.

    ``delta[n]`` holds pointees added to ``pts(n)`` that have not yet
    flowed to its successors; the worklist schedules exactly the
    representatives with a pending delta, ordered by the copy graph's
    topological order.  New copy edges and complex constraints are
    seeded with the *current* points-to set at registration time, so
    later delta pops only ever handle genuinely new pointees.
    """

    def __init__(self, module: Module):
        self.module = module
        self.table = NodeTable()
        # Parallel per-node state, indexed by interned id; authoritative
        # only at union-find representatives.
        self.pts: list[int] = []  # points-to bitmask
        self.delta: list[int] = []  # pending (unpropagated) bitmask
        self.succ: list[set[int]] = []  # copy-edge successors (may go stale)
        self.loads: list[list[tuple[int, str | None]]] = []  # (dest, field)
        self.stores: list[list[tuple[int, str | None]]] = []  # (value, field)
        self.indirect: list[list[tuple[Call, str]]] = []  # (call, caller fn)
        self.parent: list[int] = []  # union-find parent
        self.rank: list[int] = []  # SCC member count at the rep
        self.order: list[int] = []  # worklist priority (topological)
        # Bitmask of objects pointed to by some node other than themselves.
        self.pointed = 0
        # Worklist: (order, id) min-heap plus an enqueued-membership mask.
        self.worklist: list[tuple[int, int]] = []
        self.enqueued = 0
        self.scc_collapsed = 0
        self.resolved_calls: set[tuple[int, str]] = set()
        self.indirect_callees: dict[int, list[str]] = {}
        # Copy edges inserted since the last cycle-collapse sweep.  A new
        # cycle can only appear when an edge is added, so online sweeps
        # are gated on this counter (and rate-limited by pop count) —
        # per-edge lazy detection walks acyclic chains quadratically.
        self.new_edges = 0
        # id -> callee name for func:* nodes (the indirect-call filter).
        self.func_name: dict[int, str] = {}
        # (obj id, field) -> field-child id, so hot complex constraints
        # skip the string formatting + intern after the first hit.
        self.field_cache: dict[tuple[int, str], int] = {}

    # -- node interning ----------------------------------------------------

    def _node(self, name: Node) -> int:
        nid = self.table.ids.get(name)
        if nid is None:
            nid = self.table.intern(name)
            self.pts.append(0)
            self.delta.append(0)
            self.succ.append(set())
            self.loads.append([])
            self.stores.append([])
            self.indirect.append([])
            self.parent.append(nid)
            self.rank.append(1)
            # Nodes discovered during propagation keep creation order as
            # their priority; build-time nodes are re-ordered by the
            # offline Tarjan pass.
            self.order.append(nid)
            if name.startswith(_FUNC_PREFIX):
                self.func_name[nid] = name[len(_FUNC_PREFIX) :]
        return nid

    def _field_child(self, obj: int, field_name: str) -> int:
        key = (obj, field_name)
        child = self.field_cache.get(key)
        if child is None:
            child = self._node(f"{self.table.names[obj]}#{field_name}")
            self.field_cache[key] = child
        return child

    def _find(self, nid: int) -> int:
        parent = self.parent
        root = nid
        while parent[root] != root:
            root = parent[root]
        while parent[nid] != root:  # path compression
            parent[nid], nid = root, parent[nid]
        return root

    # -- propagation primitives -------------------------------------------

    def _schedule(self, rep: int) -> None:
        bit = 1 << rep
        if not (self.enqueued & bit):
            self.enqueued |= bit
            heappush(self.worklist, (self.order[rep], rep))

    def _diff_into(self, node: int, bits: int) -> None:
        """OR ``bits`` into ``pts(node)``; only genuinely new pointees
        enter the delta and reschedule the node.  The pointed-to mask is
        maintained here, incrementally: every fresh pointee is pointed
        to unless its only pointer is the (singleton) node itself."""
        rep = self._find(node)
        fresh = bits & ~self.pts[rep]
        if not fresh:
            return
        self.pts[rep] |= fresh
        if self.rank[rep] == 1:
            self.pointed |= fresh & ~(1 << rep)
        else:
            # A collapsed SCC has ≥2 member nodes, so each pointee is in
            # the points-to set of some node other than itself.
            self.pointed |= fresh
        self.delta[rep] |= fresh
        self._schedule(rep)

    def _add_base(self, node: int, obj: int) -> None:
        self._diff_into(node, 1 << obj)

    def _add_copy(self, source: int, target: int) -> None:
        rs, rt = self._find(source), self._find(target)
        if rs == rt:
            return
        succ = self.succ[rs]
        if rt not in succ:
            succ.add(rt)
            self.new_edges += 1
            pts = self.pts[rs]
            if pts:
                # Seed the new edge with everything already known; future
                # growth arrives through the source's delta.
                self._diff_into(rt, pts)

    # -- cycle collapsing --------------------------------------------------

    def _merge_pair(self, keep: int, drop: int) -> int:
        """Union two representatives; all per-node state moves to the
        survivor (higher-rank rep, for shallow union-find trees)."""
        if self.rank[keep] < self.rank[drop]:
            keep, drop = drop, keep
        merged_pts = self.pts[keep] | self.pts[drop]
        # Self-pointees excluded while the rep was a singleton become
        # pointed now: the SCC gains a second member.
        if self.rank[keep] == 1 and (merged_pts >> keep) & 1:
            self.pointed |= 1 << keep
        if self.rank[drop] == 1 and (merged_pts >> drop) & 1:
            self.pointed |= 1 << drop
        self.parent[drop] = keep
        self.rank[keep] += self.rank[drop]
        self.pts[keep] = merged_pts
        self.pts[drop] = 0
        self.delta[keep] |= self.delta[drop]
        self.delta[drop] = 0
        merged_succ: set[int] = set()
        for target in self.succ[keep] | self.succ[drop]:
            rt = self._find(target)
            if rt != keep:
                merged_succ.add(rt)
        self.succ[keep] = merged_succ
        self.succ[drop] = set()
        self.loads[keep] += self.loads[drop]
        self.loads[drop] = []
        self.stores[keep] += self.stores[drop]
        self.stores[drop] = []
        self.indirect[keep] += self.indirect[drop]
        self.indirect[drop] = []
        if self.order[drop] < self.order[keep]:
            self.order[keep] = self.order[drop]
        self.scc_collapsed += 1
        return keep

    def _merge_group(self, members: list[int]) -> None:
        """Collapse one SCC (its current representatives) to one node and
        re-propagate the merged set once — members may have flushed their
        deltas to disjoint successor sets before the merge."""
        members = sorted(members)
        rep = members[0]
        for other in members[1:]:
            rep = self._merge_pair(rep, other)
        if self.pts[rep]:
            self.delta[rep] = self.pts[rep]
            self._schedule(rep)

    def _collapse_sccs(self, roots: list[int], assign_order: bool = False) -> None:
        """Iterative Tarjan over the copy graph restricted to what is
        reachable from ``roots``; every non-trivial SCC collapses.  With
        ``assign_order`` the pass doubles as the topological sort: SCCs
        pop off Tarjan's stack sinks-first, so numbering them from high
        to low gives sources the smallest worklist priority."""
        find = self._find
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        instack: set[int] = set()
        stack: list[int] = []
        sccs: list[list[int]] = []
        counter = 0
        for root in roots:
            root = find(root)
            if root in index:
                continue
            frames: list[list] = [[root, None, 0]]
            while frames:
                frame = frames[-1]
                node = frame[0]
                if frame[1] is None:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    instack.add(node)
                    frame[1] = sorted({find(t) for t in self.succ[node]} - {node})
                children = frame[1]
                descended = False
                while frame[2] < len(children):
                    child = children[frame[2]]
                    frame[2] += 1
                    if child not in index:
                        frames.append([child, None, 0])
                        descended = True
                        break
                    if child in instack and index[child] < low[node]:
                        low[node] = index[child]
                if descended:
                    continue
                frames.pop()
                if frames and low[node] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[node]
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        instack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
        if assign_order:
            # Tarjan emits SCCs in reverse topological order of the
            # condensation: number from high to low.
            next_order = len(sccs)
            for scc in sccs:
                next_order -= 1
                for member in scc:
                    self.order[member] = next_order
        # Merging rewires find(); do it only after the traversal is done.
        for scc in sccs:
            if len(scc) > 1:
                self._merge_group(scc)

    # -- constraint construction helpers ----------------------------------

    def _value_node(self, function: Function, value: Value) -> int | None:
        if isinstance(value, Temp):
            return self._node(temp_node(function.name, value))
        if isinstance(value, FuncRef):
            node = self._node(f"const:{func_node(value.name)}")
            self._add_base(node, self._node(func_node(value.name)))
            return node
        if isinstance(value, ParamValue):
            return self._node(arg_node(function.name, value.index))
        if isinstance(value, (ConstInt, ConstStr, Undef)):
            return None
        return None

    def _addr_object(self, function: Function, addr: Address) -> int | None:
        """The abstract object a *direct* address denotes (None if the
        address is a deref, handled via complex constraints)."""
        if isinstance(addr, VarAddr):
            return self._node(loc_node(function.name, addr.var))
        if isinstance(addr, FieldAddr):
            return self._node(loc_node(function.name, addr.tracked_var() or addr.var))
        if isinstance(addr, ElementAddr):
            return self._node(loc_node(function.name, addr.var))  # array smashing
        if isinstance(addr, GlobalAddr):
            return self._node(global_node(addr.name))
        return None

    # -- constraint extraction ---------------------------------------------

    def build(self) -> None:
        for function in self.module.functions.values():
            self._build_function(function)

    def _build_function(self, function: Function) -> None:
        name = function.name
        for instruction in function.instructions():
            if isinstance(instruction, AddrOf):
                obj = self._addr_object(function, instruction.addr)
                if obj is not None:
                    self._add_base(self._node(temp_node(name, instruction.dest)), obj)
            elif isinstance(instruction, Load):
                dest = self._node(temp_node(name, instruction.dest))
                addr = instruction.addr
                obj = self._addr_object(function, addr)
                if obj is not None:
                    self._add_copy(obj, dest)
                elif isinstance(addr, DerefAddr):
                    pointer = self._value_node(function, addr.pointer)
                    if pointer is not None:
                        rep = self._find(pointer)
                        self.loads[rep].append((dest, addr.field))
                        for obj in _bits_to_ids(self.pts[rep]):
                            self._apply_load(dest, addr.field, obj)
            elif isinstance(instruction, Store):
                value = self._value_node(function, instruction.value)
                addr = instruction.addr
                obj = self._addr_object(function, addr)
                if obj is not None:
                    if value is not None:
                        self._add_copy(value, obj)
                elif isinstance(addr, DerefAddr):
                    pointer = self._value_node(function, addr.pointer)
                    if pointer is not None and value is not None:
                        rep = self._find(pointer)
                        self.stores[rep].append((value, addr.field))
                        for obj in _bits_to_ids(self.pts[rep]):
                            self._apply_store(value, addr.field, obj)
            elif isinstance(instruction, (BinOp, UnOp, CastOp, Select)):
                # Pointer arithmetic / casts / selects preserve pointees.
                dest = instruction.result()
                if dest is not None:
                    dest_node = self._node(temp_node(name, dest))
                    for operand in instruction.operands():
                        source = self._value_node(function, operand)
                        if source is not None:
                            self._add_copy(source, dest_node)
            elif isinstance(instruction, Call):
                self._build_call(function, instruction)
            elif isinstance(instruction, Ret):
                if instruction.value is not None:
                    source = self._value_node(function, instruction.value)
                    if source is not None:
                        self._add_copy(source, self._node(ret_node(name)))

    def _wire_direct_call(self, function: Function, call: Call, callee_name: str) -> None:
        for index, argument in enumerate(call.args):
            source = self._value_node(function, argument)
            if source is not None:
                self._add_copy(source, self._node(arg_node(callee_name, index)))
        if call.dest is not None:
            self._add_copy(
                self._node(ret_node(callee_name)),
                self._node(temp_node(function.name, call.dest)),
            )

    def _build_call(self, function: Function, call: Call) -> None:
        if call.callee is not None:
            self._wire_direct_call(function, call, call.callee)
            return
        pointer = self._value_node(function, call.callee_value) if call.callee_value is not None else None
        if pointer is not None:
            rep = self._find(pointer)
            self.indirect[rep].append((call, function.name))
            for obj in _bits_to_ids(self.pts[rep]):
                self._apply_indirect(call, function.name, obj)

    # -- complex-constraint application -----------------------------------

    def _apply_load(self, dest: int, field_name: str | None, obj: int) -> None:
        source = self._field_child(obj, field_name) if field_name else obj
        self._add_copy(source, dest)

    def _apply_store(self, value: int, field_name: str | None, obj: int) -> None:
        target = self._field_child(obj, field_name) if field_name else obj
        self._add_copy(value, target)

    def _apply_indirect(self, call: Call, caller: str, obj: int) -> None:
        callee_name = self.func_name.get(obj)
        if callee_name is None:
            return
        key = (call.uid, callee_name)
        if key in self.resolved_calls:
            return
        self.resolved_calls.add(key)
        self.indirect_callees.setdefault(call.uid, []).append(callee_name)
        caller_fn = self.module.functions.get(caller)
        if caller_fn is not None:
            self._wire_direct_call(caller_fn, call, callee_name)

    # -- the solve loop ----------------------------------------------------

    def solve(self) -> AndersenResult:
        self.build()
        # Offline pass: collapse build-time cycles, assign topological
        # worklist priorities over the condensed copy graph.
        self._collapse_sccs(list(range(len(self.parent))), assign_order=True)
        self.new_edges = 0

        find = self._find
        delta = self.delta
        worklist = self.worklist
        # Entries pushed during build carry pre-topological priorities;
        # rebuild the heap so the first sweep runs source-to-sink.
        seeded = sorted({find(node) for _, node in worklist})
        worklist.clear()
        self.enqueued = 0
        for node in seeded:
            if delta[node]:
                self._schedule(node)
        # Online cycle collapsing, amortised: complex constraints add copy
        # edges mid-solve, and only a new edge can close a new cycle.
        # Sweep the whole (condensed) graph with one Tarjan pass when
        # edges have been added and enough pops have gone by — O(N+E) per
        # sweep, rate-limited so total sweep cost stays linear-ish.
        sweep_threshold = max(32, len(self.parent) // 2)
        pops_since_sweep = 0
        iterations = 0
        limit = ITERATION_LIMIT
        while worklist and iterations < limit:
            iterations += 1
            pops_since_sweep += 1
            if self.new_edges and pops_since_sweep >= sweep_threshold:
                self._collapse_sccs(list(range(len(self.parent))))
                self.new_edges = 0
                pops_since_sweep = 0
            _, node = heappop(worklist)
            self.enqueued &= ~(1 << node)
            if self.parent[node] != node:
                continue  # merged away while enqueued; the rep is scheduled
            pending = delta[node]
            if not pending:
                continue
            delta[node] = 0
            # Copy edges: only the delta flows (difference propagation).
            for target in tuple(self.succ[node]):
                rt = find(target)
                if rt != node:
                    self._diff_into(rt, pending)
            objs = None
            loads = self.loads[node]
            stores = self.stores[node]
            indirect = self.indirect[node]
            if loads or stores or indirect:
                objs = _bits_to_ids(pending)
            # Complex loads: dest ⊇ pts(o) for each *new* pointee o.
            if loads:
                for dest, field_name in loads:
                    for obj in objs:
                        self._apply_load(dest, field_name, obj)
            # Complex stores: o ⊇ pts(value) for each new pointee o.
            if stores:
                for value, field_name in stores:
                    for obj in objs:
                        self._apply_store(value, field_name, obj)
            # Indirect calls: wire params/returns of newly seen pointees.
            if indirect:
                for call, caller in indirect:
                    for obj in objs:
                        self._apply_indirect(call, caller, obj)

        converged = True
        for _, node in worklist:
            if delta[find(node)]:
                converged = False
                break
        for callees in self.indirect_callees.values():
            callees.sort()
        return AndersenResult(
            module=self.module,
            table=self.table,
            parent=self.parent,
            pts_bits=self.pts,
            pointed_bits=self.pointed,
            indirect_callees=self.indirect_callees,
            converged=converged,
            iterations=iterations,
            scc_collapsed=self.scc_collapsed,
        )


def analyze_module(module: Module) -> AndersenResult:
    """Run Andersen's analysis over every function in ``module``."""
    return _Solver(module).solve()
