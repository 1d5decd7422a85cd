"""Finite posets: construction, lattice predicates, orthocomplementations,
isomorphism testing, and small-instance catalogs.

Elements are indices 0..n-1 everywhere inside the package; labels exist
only at the I/O boundary. The order is stored as bitmask rows, one mask
per element, so comparisons and cone computations are word operations.

Conventions:
  * ``up[i]`` is the mask of all j with i <= j (bit i always set).
  * A missing meet or join is reported as None, never as a sentinel
    element.
  * Every constructor validates reflexivity, antisymmetry and
    transitivity; there is no unchecked path to a ``Poset``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from operator import or_

from .bitops import _transpose, bits, cut, mask_of, or_rows
from .errors import (
    BoundExceeded,
    CycleError,
    InvalidOrthoMap,
    MemberOutOfRange,
    UnknownLabel,
)

MAX_CATALOG_N = 6


class Poset:
    """A finite partial order on indices 0..n-1 with label decoration."""

    def __init__(self, labels, up):
        self.labels = tuple(str(x) for x in labels)
        self.up = tuple(up)
        self.n = len(self.labels)
        self.full = (1 << self.n) - 1
        if len(set(self.labels)) != self.n:
            raise ValueError("labels must be distinct")
        if len(self.up) != self.n:
            raise ValueError("one up-mask per element required")
        self._check_axioms()

    def _check_axioms(self):
        for i, row in enumerate(self.up):
            if row & ~self.full:
                raise MemberOutOfRange(f"up[{i}] has bits outside the carrier")
            if not row >> i & 1:
                raise ValueError(f"order not reflexive at {self.labels[i]}")
        # the lowest other j both above and below i breaks antisymmetry;
        # reach[i], everything above something above i, is i's row again
        # when the order is transitive
        reach = or_rows(self.up)
        for i, (row, col) in enumerate(zip(self.up, self.down)):
            j = next(bits(row & col ^ 1 << i), None)
            if j is not None:
                raise ValueError(
                    f"order not antisymmetric: {self.labels[i]} and {self.labels[j]}"
                )
            if reach[i] != row:
                raise ValueError(f"order not transitive at {self.labels[i]}")

    # --- basic queries ----------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def leq_labels(self, a, b) -> bool:
        return self.leq(self.index(a), self.index(b))

    def index(self, label) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label: {label!r}") from None

    @cached_property
    def _label_index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def down(self):
        """down[j] is the mask of all i with i <= j."""
        return _transpose(self.up, self.n)

    @cached_property
    def covers(self):
        """covers[i] is the mask of elements covering i (immediate successors):
        the strict up-row of i less everything strictly above one of them."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.up)]
        return tuple(row & ~above for row, above in zip(strict, or_rows(strict)))

    def _spanning(self, rows):
        """The element whose row is the whole carrier (bottom in up, top in down)."""
        return next((i for i, row in enumerate(rows) if row == self.full), None)

    @cached_property
    def bottom(self):
        return self._spanning(self.up)

    @cached_property
    def top(self):
        return self._spanning(self.down)

    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    # --- lattice structure ------------------------------------------------

    @cached_property
    def _meet_table(self):
        return _bound_table(self.down)

    @cached_property
    def _join_table(self):
        return _bound_table(self.up)

    def meet(self, p: int, q: int):
        """Greatest lower bound, or None when the pair has none."""
        return self._meet_table[p][q]

    def join(self, p: int, q: int):
        """Least upper bound, or None when the pair has none."""
        return self._join_table[p][q]

    def is_lattice(self) -> bool:
        """Nonempty, with a meet and a join for every pair."""
        return self.n > 0 and not any(
            None in row for table in (self._meet_table, self._join_table) for row in table
        )

    def is_distributive(self) -> bool:
        """Does meet distribute over join? Decided once per poset."""
        return self._distributive

    @cached_property
    def _distributive(self) -> bool:
        """A finite lattice is distributive iff each join-irreducible (one
        whose strict down-set is a down-row) is join-prime (Davey & Priestley,
        Introduction to Lattices and Order, 2nd ed., 2002): the
        join-irreducibles below a v b are those below a or below b."""
        if not self.is_lattice():
            return False
        rows = set(self.down)
        irr = mask_of(j for j, row in enumerate(self.down) if row ^ 1 << j in rows)
        below = [row & irr for row in self.down]
        return all(
            below[j] == below[a] | below[b]
            for a, joins in enumerate(self._join_table)
            for b, j in zip(range(a), joins)
        )

    @cached_property
    def _complements(self):
        """_complements[i] is the mask of the j with meet(i, j) = bottom and
        join(i, j) = top; meaningful on a bounded poset only."""
        mt, jt, bot, top = self._meet_table, self._join_table, self.bottom, self.top
        return tuple(
            mask_of(j for j in range(self.n) if mt[i][j] == bot and jt[i][j] == top)
            for i in range(self.n)
        )

    def is_boolean(self) -> bool:
        """A complemented distributive lattice."""
        return self.is_bounded() and self.is_distributive() and all(self._complements)

    # --- misc -------------------------------------------------------------

    def opposite(self) -> "Poset":
        """The same labels under the reversed order: up and down swap."""
        return Poset(self.labels, self.down)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"Poset({self.n} elements)"


def _bound_table(rows) -> list:
    """table[p][q] is the element whose row is rows[p] & rows[q], or None.

    For the down-rows of an order the common row is the set of common
    lower bounds, which is some element's down-row exactly when that
    element is the greatest of them: the meet. The up-rows give the join.
    """
    at = {row: i for i, row in enumerate(rows)}
    return [[at.get(a & b) for b in rows] for a in rows]


def build_poset(labels, pairs) -> Poset:
    """Build a poset from labels and generating order assertions.

    ``pairs`` is any iterable of (low, high) label pairs; the reflexive
    transitive closure is taken, so generating assertions suffice.
    Raises UnknownLabel for an undeclared label and CycleError when the
    closure would identify two distinct labels.
    """
    labels = tuple(str(x) for x in labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("labels must be distinct")
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        try:
            i, j = index[str(a)], index[str(b)]
        except KeyError as exc:
            raise UnknownLabel(f"unknown label: {exc.args[0]!r}") from None
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i, (row, col) in enumerate(zip(up, _transpose(up, n))):
        j = next(bits(row & col ^ 1 << i), None)
        if j is not None:
            raise CycleError(
                f"assertions force {labels[i]} <= {labels[j]} <= {labels[i]}"
            )
    return Poset(labels, up)


# --- subset families --------------------------------------------------------


class SubsetFamily:
    """A deduplicated family of subsets of {0..m-1}, kept in sorted mask order."""

    __slots__ = ("m", "full", "members")

    def __init__(self, m: int, members):
        self.m = m
        self.full = (1 << m) - 1
        self.members = tuple(sorted(set(members)))
        if reduce(or_, self.members, 0) & ~self.full:
            x = next(x for x in self.members if x & ~self.full)
            raise MemberOutOfRange(f"member {x:#x} exceeds carrier of size {m}")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

    def __eq__(self, other):
        return (
            isinstance(other, SubsetFamily)
            and self.m == other.m
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.m, self.members))

    def __repr__(self):
        return f"SubsetFamily(m={self.m}, {len(self.members)} members)"


def poset_of_family(family: SubsetFamily) -> Poset:
    """The inclusion order on a subset family, labelled by the subsets."""
    members = family.members
    labels = ["{" + ",".join(str(b) for b in bits(x)) + "}" for x in members]
    return Poset(labels, [cut(members, x) for x in members])


# --- standard constructions -------------------------------------------------


def chain(k: int) -> Poset:
    if k < 0:
        raise ValueError(f"chain({k}): a size cannot be negative")
    labels = [f"c{i}" for i in range(k)]
    up = [((1 << k) - 1) & ~((1 << i) - 1) for i in range(k)]
    return Poset(labels, up)


def antichain(k: int) -> Poset:
    if k < 0:
        raise ValueError(f"antichain({k}): a size cannot be negative")
    return Poset([f"a{i}" for i in range(k)], [1 << i for i in range(k)])


def boolean_algebra(num_atoms: int) -> Poset:
    """The powerset of ``num_atoms`` generators ordered by inclusion."""
    if num_atoms < 0:
        raise ValueError(f"boolean_algebra({num_atoms}): a size cannot be negative")
    return poset_of_family(SubsetFamily(num_atoms, range(1 << num_atoms)))


# --- orthocomplementations ---------------------------------------------------


@dataclass(frozen=True)
class OrthoMap:
    """An orthocomplementation: an involutive anti-isotone permutation f
    with meet(p, f(p)) = bottom and join(p, f(p)) = top for every p."""

    poset: Poset
    perm: tuple

    def __post_init__(self):
        p = self.poset
        f = self.perm
        if sorted(f) != list(range(p.n)):
            raise InvalidOrthoMap("not a permutation of the carrier")
        if not p.is_bounded():
            raise InvalidOrthoMap("poset is not bounded")
        for i in range(p.n):
            if f[f[i]] != i:
                raise InvalidOrthoMap(f"not an involution at {p.labels[i]}")
        for i in range(p.n):
            for j in bits(p.up[i]):
                if not p.leq(f[j], f[i]):
                    raise InvalidOrthoMap(
                        f"not anti-isotone on {p.labels[i]} <= {p.labels[j]}"
                    )
        for i in range(p.n):
            if p.meet(i, f[i]) != p.bottom or p.join(i, f[i]) != p.top:
                raise InvalidOrthoMap(f"complement laws fail at {p.labels[i]}")

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def to_json(self):
        return {self.poset.labels[i]: self.poset.labels[j] for i, j in enumerate(self.perm)}


def find_orthocomplementations(poset: Poset) -> list:
    """Every orthocomplementation, in the lexicographic order of its
    permutation; empty for unbounded posets. Raises BoundExceeded when
    the search passes its node cap."""
    if not poset.is_bounded():
        return []
    return [OrthoMap(poset, perm) for perm in _ortho_search(poset)[0]]


# candidate pairs the orthocomplementation search may try before it gives up
_SEARCH_NODE_CAP = 1 << 16


def _ortho_search(poset: Poset):
    """Depth-first search over involutions of a bounded poset that send
    each element to a complement and reverse the order.

    Positions are filled in index order, candidates tried in ascending
    order, and f(i) = j also sets f(j) = i, so the permutations come out
    in lexicographic order. A candidate pair is cut as soon as it breaks
    anti-isotony against a pair already set. Returns (permutations,
    nodes), where nodes counts the candidate pairs tried.
    """
    n, up, down, comp = poset.n, poset.up, poset.down, poset._complements
    f = [0] * n
    out = []
    nodes = 0

    def fits(i, j, assigned):
        # every k >= i already set must map below j, every k <= i above j
        return all(down[j] >> f[k] & 1 for k in bits(up[i] & assigned)) and all(
            up[j] >> f[k] & 1 for k in bits(down[i] & assigned)
        )

    def extend(i, assigned):
        nonlocal nodes
        while i < n and assigned >> i & 1:
            i += 1
        if i == n:
            out.append(tuple(f))
            return
        for j in bits(comp[i] & ~assigned):
            nodes += 1
            if nodes > _SEARCH_NODE_CAP:
                raise BoundExceeded(
                    f"orthocomplementation search passed {_SEARCH_NODE_CAP} nodes"
                )
            if fits(i, j, assigned) and fits(j, i, assigned):
                f[i], f[j] = j, i
                extend(i + 1, assigned | 1 << i | 1 << j)

    extend(0, 0)
    return out, nodes


# --- isomorphism --------------------------------------------------------------


def are_isomorphic(p: Poset, q: Poset):
    """Order isomorphism test; returns (answer, witness index map or None).

    Isomorphic orders have equal canonical keys, and the witness sends
    each element of p to the element of q with the same canonical place.
    """
    key, pos = _canonical(p.up)
    q_key, q_pos = _canonical(q.up)
    if key != q_key:  # also when the sizes differ
        return False, None
    at = {k: j for j, k in enumerate(q_pos)}
    return True, tuple([at[k] for k in pos])


# --- catalogs ------------------------------------------------------------------


def _upsets(rows, cap: int) -> list:
    """Every set S holding rows[e] for each e in S, in no particular order:
    the up-sets of P for rows = P.up, its down-sets for rows = P.down.

    Raises BoundExceeded once there are more than ``cap`` of them.
    """
    out = [0]
    # each other element of rows[e] has a strictly smaller row, so in this
    # order everything rows[e] asks for is decided when e is reached; the
    # sets held are then the up-sets of the elements reached so far, never
    # more than the final count, so holding at most cap + 1 bounds the work
    for e in sorted(range(len(rows)), key=lambda i: bin(rows[i]).count("1")):
        bit, need = 1 << e, rows[e] & ~(1 << e)
        grown = (acc | bit for acc in islice(out, len(out)) if acc & need == need)
        out += islice(grown, max(0, cap + 1 - len(out)))
    if len(out) > cap:
        raise BoundExceeded(f"up-set count exceeds the configured cap {cap}")
    return out


def _natural_posets(n, tag=None, grow=lambda tag, d: tag):
    """All posets on 0..n-1 whose order respects the integer order, as
    (up-rows, tag) pairs.

    Element k is attached as a maximal element above a down-set d of the
    first k, so every output is transitive by construction and every
    isomorphism class appears (each finite poset has a linear extension).
    The empty poset carries ``tag``, and each child grow(parent's tag, d).
    """
    posets = [((), tag)]
    for _ in range(n):
        posets = [(_grown(up, d), grow(t, d)) for up, t, d in _children(posets)]
    return posets


def _children(posets):
    """Each (up-rows, tag) pair of ``posets`` with each down-set d of its
    order, in ascending order of d: the next level of ``_natural_posets``."""
    for up, tag in posets:
        for d in sorted(_upsets(_transpose(up, len(up)), 1 << len(up))):
            yield up, tag, d


def _grown(up, d: int) -> tuple:
    """The up-rows ``up`` with one new maximal element above the down-set d."""
    top = 1 << len(up)
    rows = [row | top if d >> i & 1 else row for i, row in enumerate(up)]
    return tuple(rows) + (top,)


def _stable_colours(colour, below, above) -> list:
    """Refine ``colour`` until its partition into colour cells is stable.

    Colours are places (the number of elements of smaller colour), so a
    colouring with n cells is a labelling. Each round recolours each
    element of a cell of two or more by its colour and the sorted colours
    strictly below and strictly above it, ranked. Isomorphisms commute
    with every round.
    """
    cells = len(set(colour))
    while cells < len(colour):
        size = [0] * len(colour)
        for c in colour:
            size[c] += 1
        sig = [
            (c, tuple(sorted([colour[j] for j in b])), tuple(sorted([colour[j] for j in a])))
            if size[c] > 1
            else (c,)
            for c, b, a in zip(colour, below, above)
        ]
        place = {s: k for k, s in reversed(list(enumerate(sorted(sig))))}
        if len(place) == cells:
            break
        cells = len(place)
        colour = [place[s] for s in sig]
    return colour


def _canonical(up):
    """Canonical form of the order with up-rows ``up``: (key, pos).

    Individualization and refinement (McKay, "Practical graph isomorphism",
    1981; McKay and Piperno, 2014): refine one colour until stable, then
    give each element of the first cell of two or more in turn a colour
    of its own, and recurse. A leaf's colours are places; its key is the
    up-rows relabelled by them. The key is the least leaf key and pos the
    places of a leaf that has it, so two orders get equal keys exactly
    when they are isomorphic, and the key is the up-rows of a labelling.

    Two leaves with equal keys give an automorphism, which maps the
    explored branch where their paths part onto the current one, so the
    current one is left. A child that an automorphism fixing the path
    maps onto an explored sibling is skipped: it has the same leaf keys.
    """
    n = len(up)
    ups = [[j for j in range(n) if row >> j & 1] for row in up]
    above = [[j for j in row if j != i] for i, row in enumerate(ups)]
    below = [[] for _ in range(n)]
    for i, row in enumerate(above):
        for j in row:
            below[j].append(i)
    best = []  # key, pos and path of the least leaf so far
    autos = []

    def search(colour, path):
        """Explore the node on ``path``; return the depth to go back to
        when an automorphism maps an explored branch onto this one."""
        colour = _stable_colours(colour, below, above)
        if len(set(colour)) == n:
            w = [1 << c for c in colour]
            order = sorted(range(n), key=colour.__getitem__)
            key = tuple([sum([w[j] for j in ups[i]]) for i in order])
            if not best or key < best[0]:
                best[:] = key, tuple(colour), path
            elif key == best[0]:
                at = {c: i for i, c in enumerate(best[1])}
                autos.append([at[c] for c in colour])
                return next(d for d, (u, v) in enumerate(zip(path, best[2])) if u != v)
            return None
        ranked = sorted(colour)
        c = next(c for c, d in zip(ranked, ranked[1:]) if c == d)
        done = set()  # the orbits of the explored children
        for v in [i for i, x in enumerate(colour) if x == c]:
            if v in done:
                continue
            child = [c + 1 if x == c else x for x in colour]
            child[v] = c
            back = search(child, path + [v])
            if back is not None and back < len(path):
                return back
            done.add(v)
            gens = [g for g in autos if all(g[x] == x for x in path)]
            while more := {g[x] for g in gens for x in done} - done:
                done |= more
        return None

    search([0] * n, [])
    return best[0], best[1]


def enumerate_posets(n: int, max_n: int = MAX_CATALOG_N) -> list:
    """One representative per isomorphism class of n-element posets: the
    first labelling of each class that ``_natural_posets`` lists, in that
    order, labelled p0..p{n-1}.

    The count grows fast (318 classes at n=6, 2045 at n=7), hence the
    guard; pass a larger ``max_n`` deliberately to go past it.
    """
    if n < 0:
        raise ValueError(f"poset catalog for n={n}: a size cannot be negative")
    if n > max_n:
        raise BoundExceeded(
            f"poset catalog for n={n} exceeds the configured bound {max_n}"
        )
    if n == 0:
        return [Poset((), ())]
    # a labelling whose pos maps it onto the key C grows over d into a
    # copy of C grown over pos(d), so the child's key is memoized on
    # (C, pos(d)); a child that is grown further gets its pos composed
    # from the two, and a labelling of the last level is only keyed
    memo = {}

    def child(tag, d):
        key, pos = tag
        image = sum([1 << p for i, p in enumerate(pos) if d >> i & 1])
        hit = memo.get((key, image))
        if hit is None:
            hit = memo[key, image] = _canonical(_grown(key, image))
        return hit

    def grow(tag, d):
        key, child_pos = child(tag, d)
        pos = tag[1]
        return key, tuple(map(child_pos.__getitem__, pos)) + (child_pos[len(pos)],)

    labels = [f"p{i}" for i in range(n)]
    reps = []
    seen = set()
    for up, tag, d in _children(_natural_posets(n - 1, ((), ()), grow)):
        key, _ = child(tag, d)
        if key not in seen:
            seen.add(key)
            reps.append(Poset(labels, _grown(up, d)))
    return reps


# --- serialization -------------------------------------------------------------


def poset_to_json(poset: Poset) -> dict:
    """JSON form with generating assertions only (the covering pairs)."""
    le = []
    for i in range(poset.n):
        for j in bits(poset.covers[i]):
            le.append([poset.labels[i], poset.labels[j]])
    return {"elements": list(poset.labels), "le": le}


def poset_from_json(data: dict) -> Poset:
    if not isinstance(data, dict) or "elements" not in data:
        raise ValueError('poset JSON needs an "elements" array')
    elements = data["elements"]
    le = data.get("le", [])
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise ValueError('"elements" must be an array of strings')
    if not isinstance(le, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in le
    ):
        raise ValueError('"le" must be an array of [low, high] pairs')
    return build_poset(elements, le)


def _dot_quote(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _hasse_lines(poset: Poset, prefix: str, indent: str) -> list:
    """DOT node and covering-edge lines, nodes named prefix + index."""
    lines = [
        f'{indent}{prefix}{i} [label="{_dot_quote(lab)}"];'
        for i, lab in enumerate(poset.labels)
    ]
    for i in range(poset.n):
        for j in bits(poset.covers[i]):
            lines.append(f"{indent}{prefix}{i} -> {prefix}{j};")
    return lines


def poset_to_dot(poset: Poset, name: str = "poset") -> str:
    """Hasse diagram in DOT, edges directed low to high."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += _hasse_lines(poset, "n", "  ")
    lines.append("}")
    return "\n".join(lines) + "\n"
