"""Incremental family clustering: union-find over profit-sharing edges.

The hard core of the streaming plane.  Every profit-sharing match is a
pair of edges — ``contract—operator`` and ``contract—affiliate`` — and
a family is a connected component of that graph.  Two properties make
the representation safe to maintain *online*:

* **Merge-only.**  Matches only accumulate as the watermark advances,
  so components only ever merge; nothing is retracted.  (This is why
  the stream clusters over profit-sharing edges rather than the batch
  clusterer's role-dependent operator graph: role assignments can flip
  as new matches arrive, and a union-find cannot un-union.)
* **Order-free canonical roots.**  :class:`IncrementalFamilies` keeps
  the component root at the lexicographically smallest member, so the
  partition *and its representatives* are a pure function of the edge
  set — delta batching and arrival order can never change them.  That
  is the invariant the parity matrix (``tests/stream/test_parity.py``)
  leans on.

:func:`components_from_edges` is the cold-path reference: a graph search
over the same edges, used by :func:`repro.stream.pipeline.batch_rebuild`
so the incremental structure is checked against an algorithmically
independent implementation, not against itself.
:func:`derive_families` turns either partition into §7
:class:`~repro.analysis.families.Family` rows through the per-component
:func:`component_family` and the naming pass :func:`unique_names`,
which the streaming deriver calls for just the components a tick
changed — the other half of the byte-parity story.
"""

from __future__ import annotations

from repro.analysis.families import ClusteringResult, Family, connected_components

__all__ = [
    "FamilyStats",
    "IncrementalFamilies",
    "component_family",
    "components_from_edges",
    "derive_clustering",
    "derive_families",
    "unique_names",
]


class IncrementalFamilies:
    """Union-find with deterministic (lexicographic-min) canonical roots.

    ``union`` keeps the smaller address as the root, so by induction the
    root of every component is its minimum member regardless of the
    order edges arrived in.  Path compression keeps ``find`` amortized
    near-constant; the min-root rule costs the usual union-by-rank
    balance, which the compression pays back.  Each root also keeps its
    component's member list, so one family is readable without a walk
    over the whole forest.
    """

    __slots__ = ("_parent", "_members", "merges", "unions")

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        #: root -> its component's members (unordered).
        self._members: dict[str, list[str]] = {}
        #: Unions that actually joined two distinct components.
        self.merges = 0
        #: Total union calls (including no-ops on already-joined pairs).
        self.unions = 0

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, member: str) -> bool:
        return member in self._parent

    def add(self, member: str) -> bool:
        """Ensure ``member`` exists (as a singleton if new)."""
        if member in self._parent:
            return False
        self._parent[member] = member
        self._members[member] = [member]
        return True

    def find(self, member: str) -> str:
        """The canonical root (minimum member) of ``member``'s component."""
        parent = self._parent
        root = member
        while parent[root] != root:
            root = parent[root]
        # Path compression: point the whole chain at the root.
        while parent[member] != root:
            parent[member], member = root, parent[member]
        return root

    def union(self, a: str, b: str) -> bool:
        """Join the components of ``a`` and ``b``; True on a real merge."""
        self.add(a)
        self.add(b)
        self.unions += 1
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        keep, absorb = (root_a, root_b) if root_a < root_b else (root_b, root_a)
        self._parent[absorb] = keep
        kept, absorbed = self._members[keep], self._members.pop(absorb)
        if len(kept) < len(absorbed):  # extend the longer list
            kept, absorbed = absorbed, kept
            self._members[keep] = kept
        kept.extend(absorbed)
        self.merges += 1
        return True

    def is_root(self, member: str) -> bool:
        return member in self._members

    def members(self, root: str) -> list[str]:
        """The members of the component rooted at ``root`` (unordered)."""
        return self._members[root]

    def components(self) -> dict[str, list[str]]:
        """``{root: sorted members}`` for every component, sorted-stable."""
        out: dict[str, list[str]] = {}
        for member in sorted(self._parent):
            out.setdefault(self.find(member), []).append(member)
        return out

    # -- checkpoint codec ----------------------------------------------------

    def encode(self) -> dict:
        """JSON-safe state: every member mapped to its canonical root."""
        return {
            "members": {m: self.find(m) for m in sorted(self._parent)},
            "merges": self.merges,
            "unions": self.unions,
        }

    @classmethod
    def decode(cls, payload: dict) -> "IncrementalFamilies":
        families = cls()
        for member, root in payload.get("members", {}).items():
            families._parent[member] = root
            families._parent.setdefault(root, root)
        for member, root in families._parent.items():
            families._members.setdefault(root, []).append(member)
        families.merges = int(payload.get("merges", 0))
        families.unions = int(payload.get("unions", 0))
        return families


def components_from_edges(
    edges: list[tuple[str, str]],
) -> dict[str, list[str]]:
    """Connected components by graph search — the cold-rebuild reference.

    Same ``{root: sorted members}`` shape as
    :meth:`IncrementalFamilies.components`, computed by a different
    algorithm (the batch clusterer's :func:`connected_components`) so
    batch-vs-incremental parity is a real cross-check.
    """
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    out: dict[str, list[str]] = {}
    for component in connected_components(adjacency):
        members = sorted(component)
        out[members[0]] = members
    return out


class FamilyStats:
    """A component's profit-sharing totals: a left fold (:meth:`fold`)
    over its contracts' records in dataset order."""

    __slots__ = ("total_usd", "first_ts", "last_ts", "operator_profit")

    def __init__(self) -> None:
        self.total_usd = 0.0
        self.first_ts: int | None = None
        self.last_ts: int | None = None
        #: operator -> its operator-share profit (names the family).
        self.operator_profit: dict[str, float] = {}

    def fold(self, records) -> None:
        """Continue the fold over ``records``, in order."""
        total, first, last = self.total_usd, self.first_ts, self.last_ts
        profit = self.operator_profit
        for record in records:
            total += record.total_usd
            ts = record.timestamp
            if first is None or ts < first:
                first = ts
            if last is None or ts > last:
                last = ts
            profit[record.operator] = profit.get(record.operator, 0.0) + record.operator_usd
        self.total_usd, self.first_ts, self.last_ts = total, first, last


def component_family(root, members, role_of, stats, explorer) -> Family:
    """One component's §7 row under its base name (before
    :func:`unique_names`).

    ``role_of`` maps a member to its dataset role (contract > operator >
    affiliate precedence; ``None`` outside the dataset) and ``stats`` is
    the component's :class:`FamilyStats`.  Naming follows the batch
    clusterer's convention: the first sorted operator carrying a
    non-generic Etherscan phishing label names the family, else the
    top-profit operator's address prefix.
    """
    by_role: dict[str | None, set[str]] = {
        "contract": set(), "operator": set(), "affiliate": set(), None: set(),
    }
    for member in members:
        by_role[role_of(member)].add(member)
    stats = stats if stats is not None else FamilyStats()
    return Family(
        name=_component_name(
            by_role["operator"], explorer, stats.operator_profit, fallback=root
        ),
        operators=by_role["operator"],
        contracts=by_role["contract"],
        affiliates=by_role["affiliate"],
        total_profit_usd=stats.total_usd,
        first_tx_ts=stats.first_ts,
        last_tx_ts=stats.last_ts,
    )


def unique_names(named_roots) -> list[str]:
    """Final family names for ``(root, base name)`` pairs in root order:
    a base name already taken by an earlier root gets the root's
    address prefix appended, deterministically."""
    used: set[str] = set()
    out: list[str] = []
    for root, name in named_roots:
        if name in used:
            name = f"{name}-{root[2:8]}"
        used.add(name)
        out.append(name)
    return out


def derive_families(dataset, components, explorer) -> list[Family]:
    """§7 family rows from a component partition — shared, pure, sorted.

    Both the incremental path and the cold rebuild call this with their
    respective partitions; identical partitions therefore yield
    byte-identical family tables.  Each row is :func:`component_family`
    of its component, folded over its contracts' records in dataset
    order; :func:`unique_names` then disambiguates duplicate names (two
    components whose top operators share a prefix) with the component
    root.
    """
    root_of = {
        member: root for root, members in components.items() for member in members
    }
    records_of: dict[str, list] = {}
    for record in dataset.transactions:
        root = root_of.get(record.contract)
        if root is not None:
            records_of.setdefault(root, []).append(record)
    stats: dict[str, FamilyStats] = {}
    for root, records in records_of.items():
        stats[root] = FamilyStats()
        stats[root].fold(records)

    roots = sorted(components)
    families = [
        component_family(
            root, components[root], dataset.role_of, stats.get(root), explorer
        )
        for root in roots
    ]
    names = unique_names((root, fam.name) for root, fam in zip(roots, families))
    for fam, name in zip(families, names):
        fam.name = name
    return families


def derive_clustering(dataset, components, explorer) -> ClusteringResult:
    """The :class:`ClusteringResult` shell ``build_index`` consumes."""
    return ClusteringResult(
        families=derive_families(dataset, components, explorer)
    )


def _component_name(operators, explorer, profit, fallback: str) -> str:
    """Batch-convention family name (pure in its inputs)."""
    for operator in sorted(operators):
        label = explorer.get_label(operator)
        if (
            label is not None
            and label.is_phishing
            and not label.tag.startswith("Fake_Phishing")
        ):
            return label.tag
    if not operators:
        return fallback[:8]
    top = max(sorted(operators), key=lambda op: profit.get(op, 0.0))
    return top[:8]
