"""Declarative query specs shared by the engine and the DuckDB oracle.

A ``QuerySpec`` is a conjunctive SPJ(+group/aggregate) query: base tables with
aliases, equi-join edges, filter predicates, and a select list. Filters and
select expressions are raw SQL fragments in ``alias.col`` notation; the *same*
text is compiled (a) to a Spark expression by rewriting ``alias.`` →
``alias__`` (scans rename every column to ``alias__col``) and (b) verbatim
into the oracle SQL — so the engine and the oracle answer the same question by
construction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TableRef:
    alias: str
    table: str


@dataclass(frozen=True)
class JoinEdge:
    """Equi-join ``left_alias.left_cols = right_alias.right_cols`` (col-wise)."""

    left_alias: str
    left_cols: tuple[str, ...]
    right_alias: str
    right_cols: tuple[str, ...]

    @staticmethod
    def of(left: str, right: str) -> "JoinEdge":
        """Parse ``"a.x = b.y"`` / ``"a.x,a.z = b.y,b.w"`` shorthand."""
        la, lc = _parse_side(left)
        ra, rc = _parse_side(right)
        return JoinEdge(la, lc, ra, rc)

    def aliases(self) -> set[str]:
        return {self.left_alias, self.right_alias}

    def sql(self) -> str:
        return " AND ".join(
            f"{self.left_alias}.{l} = {self.right_alias}.{r}"
            for l, r in zip(self.left_cols, self.right_cols)
        )


def _parse_side(s: str) -> tuple[str, tuple[str, ...]]:
    parts = [p.strip() for p in s.split(",")]
    aliases = {p.split(".")[0] for p in parts}
    if len(aliases) != 1:
        raise ValueError(f"mixed aliases in join side {s!r}")
    return aliases.pop(), tuple(p.split(".", 1)[1] for p in parts)


def qualify(expr: str, aliases: list[str] | set[str]) -> str:
    """Rewrite ``alias.col`` references to the engine's ``alias__col`` names.

    Quoted string literals are left untouched so a filter like
    ``p.name = 'x.y'`` cannot be corrupted.
    """
    # Split on single-quoted literals; rewrite only outside them.
    parts = re.split(r"('(?:[^']|'')*')", expr)
    pat = re.compile(r"\b(" + "|".join(re.escape(a) for a in sorted(aliases)) + r")\.")
    return "".join(
        p if i % 2 else pat.sub(lambda m: m.group(1) + "__", p)
        for i, p in enumerate(parts)
    )


def aliases_in(expr: str, aliases: list[str] | set[str]) -> set[str]:
    """Which of ``aliases`` an expression references (outside string literals)."""
    parts = re.split(r"('(?:[^']|'')*')", expr)
    text = " ".join(p for i, p in enumerate(parts) if i % 2 == 0)
    return {a for a in aliases if re.search(rf"\b{re.escape(a)}\.", text)}


def cols_of(expr: str, alias: str) -> set[str]:
    """Column names of ``alias`` referenced by an expression."""
    parts = re.split(r"('(?:[^']|'')*')", expr)
    text = " ".join(p for i, p in enumerate(parts) if i % 2 == 0)
    return set(re.findall(rf"\b{re.escape(alias)}\.(\w+)", text))


@dataclass
class QuerySpec:
    """One benchmark query. ``select`` is a list of (expr, output_name).

    ``group_by``: ``None`` → plain projection; a list of output names → those
    select entries are grouping keys and the rest must be aggregate
    expressions; ``[]`` → global aggregation.
    """

    name: str
    tables: list[TableRef]
    joins: list[JoinEdge]
    filters: list[str] = field(default_factory=list)
    select: list[tuple[str, str]] = field(default_factory=list)
    group_by: list[str] | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        seen = set()
        for t in self.tables:
            if t.alias in seen:
                raise ValueError(f"duplicate alias {t.alias!r} in {self.name}")
            seen.add(t.alias)
        for j in self.joins:
            if not j.aliases() <= seen:
                raise ValueError(f"join {j} references unknown alias in {self.name}")
        if self.group_by is not None:
            outs = {o for _, o in self.select}
            if not set(self.group_by) <= outs:
                raise ValueError(f"group_by keys not in select list in {self.name}")
        if not self.select:
            raise ValueError(f"empty select list in {self.name}")

    # ------------------------------------------------------------ inspection
    @property
    def aliases(self) -> list[str]:
        return [t.alias for t in self.tables]

    def table_of(self, alias: str) -> str:
        for t in self.tables:
            if t.alias == alias:
                return t.table
        raise KeyError(alias)

    def scan_filters(self, alias: str) -> list[str]:
        """Single-alias filters pushed down to this alias's scan."""
        al = set(self.aliases)
        return [f for f in self.filters if aliases_in(f, al) == {alias}]

    def residual_filters(self) -> list[str]:
        """Filters touching >1 alias — applied after the joins."""
        al = set(self.aliases)
        return [f for f in self.filters if len(aliases_in(f, al)) > 1]

    def referenced_columns(self) -> dict[str, set[str]]:
        """Columns of each alias that the select list and filters reference.
        Each executor adds the join-key or RID columns its plan reads."""
        need: dict[str, set[str]] = {a: set() for a in self.aliases}
        for e in [e for e, _ in self.select] + list(self.filters):
            for a in self.aliases:
                need[a] |= cols_of(e, a)
        return need

    def edges_of(self, alias: str) -> list[JoinEdge]:
        return [j for j in self.joins if alias in j.aliases()]

    # ------------------------------------------------------------------ SQL
    def to_sql(self) -> str:
        """The oracle SQL over the original base tables."""
        sel = ", ".join(f"{e} AS {o}" for e, o in self.select)
        head = "SELECT DISTINCT" if self.distinct else "SELECT"
        frm = ", ".join(f"{t.table} AS {t.alias}" for t in self.tables)
        conds = [j.sql() for j in self.joins] + [f"({f})" for f in self.filters]
        sql = f"{head} {sel} FROM {frm}"
        if conds:
            sql += " WHERE " + " AND ".join(conds)
        if self.group_by is not None and self.group_by:
            keys = [e for e, o in self.select if o in self.group_by]
            sql += " GROUP BY " + ", ".join(keys)
        return sql
