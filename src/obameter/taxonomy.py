"""Keyword taxonomy with Leacock-Chodorow similarity.

A taxonomy is a single-rooted tree of keyword senses. Similarity between
two keywords k and l is

    S(k, l) = -ln(pathlen(k, l) / (2 * D))

where pathlen counts the NODES on the shortest undirected path between the
senses (an identical keyword has pathlen 1, a parent-child pair 2) and D is
the maximum depth of the tree, the root sitting at depth 1. The maximum
score ln(2 * D) therefore depends on the tree; the bundled demo tree has
D = 19 and a maximum of ln 38, about 3.6376.

Keywords may carry several senses. The file format marks senses with a
`#<n>` suffix on the node token (`bass#1`, `bass#2`); the suffix is not
part of the keyword text. Similarity over multi-sense keywords is the
maximum over sense pairs.

Keyword texts are stored normalized (`normalize_keyword`), and each public
query normalizes its own arguments once, so callers may pass any spelling.
`score` is the one similarity relation that consensus and the `dg` filter
use, and the one place that decides keywords outside the tree.
Consensus asks `neighbours`, which gives the keywords `score` admits at a
threshold by walking the tree out from each keyword's senses instead of
scoring pairs.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ConfigurationError, ObameterError

_WS = re.compile(r"[\s_]+")
_SENSE = re.compile(r"^(?P<text>.+)#(?P<n>\d+)$")

ROOT_MARKER = "-"


def normalize_keyword(text: str) -> str:
    """Canonical keyword form: lowercase, separators unified.

    Runs of whitespace and underscores collapse to a single space and the
    result is stripped. Idempotent by construction. Each distinct string
    is normalized once, through one bounded module cache.
    """
    # ahead of the cache, which cannot hash a list: anything but a string
    # fails as it does uncached
    return _normalize(text) if type(text) is str else _normalize.__wrapped__(text)


# far above the distinct keyword spellings of one command (about 200 in a run)
@functools.lru_cache(maxsize=1 << 14)
def _normalize(text: str) -> str:
    return _WS.sub(" ", text.lower()).strip()


def _split_sense(token: str) -> tuple[str, str]:
    """Return (node_id, keyword_text) for a file token."""
    m = _SENSE.match(token)
    text = m.group("text") if m else token
    return token.strip(), normalize_keyword(text)


@dataclass
class KeywordTaxonomy:
    """Single-rooted sense tree with similarity queries."""

    parent: dict[str, str | None]          # node id -> parent id (root -> None)
    depth: dict[str, int]                  # node id -> depth, root at 1
    senses: dict[str, list[str]]           # keyword text -> node ids
    max_depth: int = field(init=False)

    def __post_init__(self) -> None:
        self.max_depth = max(self.depth.values())
        # node id -> parent and children, and -> keyword text, for tree walks;
        # tuples of strings, which the garbage collector stops scanning
        links = {node: [] if par is None else [par] for node, par in self.parent.items()}
        for node, par in self.parent.items():
            if par is not None:
                links[par].append(node)
        self._links = {node: tuple(nodes) for node, nodes in links.items()}
        self._text = {node: text for text, nodes in self.senses.items() for node in nodes}
        # reach -> form -> the forms its walk reaches, as `neighbours` fills it
        self._reached: dict[int, dict[str, tuple[str, ...]]] = {}

    # size of the sense tree, not of the keyword vocabulary
    def __len__(self) -> int:
        return len(self.parent)

    def _lookup(self, keyword: str) -> tuple[str, list[str] | None]:
        norm = normalize_keyword(keyword)
        return norm, self.senses.get(norm)

    def __contains__(self, keyword: str) -> bool:
        return self._lookup(keyword)[1] is not None

    def _require(self, keyword: str) -> list[str]:
        nodes = self._lookup(keyword)[1]
        if nodes is None:
            raise ObameterError(f"keyword not in taxonomy: {keyword!r}")
        return nodes

    def _min_pathlen(self, nodes_k: list[str], nodes_l: list[str]) -> int:
        return min(self._pair_pathlen(a, b) for a in nodes_k for b in nodes_l)

    def _pair_pathlen(self, a: str, b: str) -> int:
        da, db = self.depth[a], self.depth[b]
        ra, rb = a, b
        while da > db:
            ra = self.parent[ra]
            da -= 1
        while db > da:
            rb = self.parent[rb]
            db -= 1
        while ra != rb:
            ra = self.parent[ra]
            rb = self.parent[rb]
            da -= 1
        return self.depth[a] + self.depth[b] - 2 * da + 1

    def _score(self, nodes_k: list[str], nodes_l: list[str]) -> float:
        return -math.log(self._min_pathlen(nodes_k, nodes_l) / (2 * self.max_depth))

    def lc_similarity(self, k: str, l: str) -> float:
        """Leacock-Chodorow score, the maximum over sense pairs.

        Raises ObameterError when either keyword has no sense node.
        """
        return self._score(self._require(k), self._require(l))

    def score(self, k: str, l: str) -> float:
        """Leacock-Chodorow score, with the fallback outside the tree.

        When either keyword has no sense node, equal normalized texts score
        math.inf (above every finite threshold) and different texts 0.0
        (below every positive one). Symmetric; each argument is normalized
        once.
        """
        norm_k, nodes_k = self._lookup(k)
        norm_l, nodes_l = self._lookup(l)
        if nodes_k is not None and nodes_l is not None:
            return self._score(nodes_k, nodes_l)
        return math.inf if norm_k == norm_l else 0.0

    def similar_or_exact(self, k: str, l: str, threshold: float) -> bool:
        """True iff score(k, l) is strictly above the threshold."""
        return self.score(k, l) > threshold

    def neighbours(self, keywords: Iterable[str], threshold: float) -> dict[str, set[str]]:
        """Each of `keywords` -> those of them, itself included, that
        `similar_or_exact` admits against it at `threshold`; the spellings
        of one form share one set.

        Scores no pair. The score falls as the node-count path length p
        grows, so the admissible lengths are 1..reach, and the threshold is
        tested for each p up to the first inadmissible one; a walk over
        parent and child links out from all of a form's senses, as far as
        `reach`, reaches each form first at its shortest length over sense
        pairs, and every form it reaches is a neighbour. A form outside the
        taxonomy is similar only to its own spellings (`score`).
        The taxonomy keeps each walk, as the tuple of forms it reached, by
        (form, reach), so a form is walked once per reach over all calls.
        Raises ConfigurationError unless the threshold is finite and >= 0.
        """
        if not 0 <= threshold <= sys.float_info.max:
            raise ConfigurationError(
                f"similarity threshold must be finite and >= 0, got {threshold}"
            )
        two_d, reach = 2 * self.max_depth, 0
        while reach < two_d and -math.log((reach + 1) / two_d) > threshold:
            reach += 1

        # a sense key is already normalized, and normalizing is idempotent
        senses = self.senses
        spellings: dict[str, list[str]] = {}
        for kw in keywords:
            spellings.setdefault(kw if kw in senses else normalize_keyword(kw), []).append(kw)

        reached = self._reached.setdefault(reach, {})
        near: dict[str, set[str]] = {}
        for form, kws in spellings.items():
            nodes = senses.get(form)
            if nodes is None:
                similar = set(kws)
            else:
                forms = reached.get(form)
                if forms is None:
                    forms = reached[form] = tuple(self._lengths(nodes, reach))
                similar = {kw for other in forms if other in spellings for kw in spellings[other]}
            near.update(dict.fromkeys(kws, similar))
        return near

    def _lengths(self, nodes: list[str], reach: int) -> dict[str, int]:
        """Form -> its shortest path length from `nodes`, up to `reach`."""
        links, text = self._links, self._text
        lengths: dict[str, int] = {}
        seen, level = set(nodes), nodes
        for length in range(1, reach + 1):
            if length > 1:
                level = {other for node in level for other in links[node]} - seen
                seen |= level
            for node in level:
                lengths.setdefault(text[node], length)
        return lengths

    def keywords(self) -> list[str]:
        """All keyword texts, sorted."""
        return sorted(self.senses)

    @classmethod
    def from_edges(cls, pairs: list[tuple[str, str]]) -> "KeywordTaxonomy":
        """Build from (child_token, parent_token) pairs, one per node.

        The root declares itself with the parent token "-". Rejects
        duplicate nodes, multiple roots, unknown parents, and cycles, each
        with a diagnostic naming the offending node.
        """
        parent: dict[str, str | None] = {}
        root: str | None = None
        texts: dict[str, str] = {}
        for child_tok, parent_tok in pairs:
            node, text = _split_sense(child_tok)
            if not text:
                raise ConfigurationError(f"empty keyword text in node {child_tok!r}")
            if node in parent:
                raise ConfigurationError(f"duplicate node declaration: {node!r}")
            if parent_tok == ROOT_MARKER:
                if root is not None:
                    raise ConfigurationError(
                        f"multiple roots: {root!r} and {node!r}"
                    )
                root = node
                parent[node] = None
            else:
                parent[node] = parent_tok
            texts[node] = text
        if root is None:
            raise ConfigurationError("no root declared (expected a '<node>\\t-' line)")
        for node, par in parent.items():
            if par is not None and par not in parent:
                raise ConfigurationError(
                    f"node {node!r} names unknown parent {par!r} "
                    "(second root or typo)"
                )

        # depth assignment doubles as the cycle check
        depth: dict[str, int] = {root: 1}
        for node in parent:
            chain = []
            cur = node
            while cur not in depth:
                if cur in chain:
                    raise ConfigurationError(f"cycle through node {cur!r}")
                chain.append(cur)
                cur = parent[cur]
            d = depth[cur]
            for back in reversed(chain):
                d += 1
                depth[back] = d

        senses: dict[str, list[str]] = {}
        for node in parent:
            senses.setdefault(texts[node], []).append(node)
        for nodes in senses.values():
            nodes.sort()
        return cls(parent=parent, depth=depth, senses=senses)

    @classmethod
    def loads(cls, text: str) -> "KeywordTaxonomy":
        """Parse the tab-separated edge format.

        One `child<TAB>parent` line per node, `<root><TAB>-` for the root.
        Blank lines and lines starting with '#' are skipped. A line ends at
        "\n" only, so U+0085 or U+2028 inside a keyword is part of it.
        """
        pairs: list[tuple[str, str]] = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigurationError(
                    f"line {lineno}: expected 'child<TAB>parent', got {raw!r}"
                )
            pairs.append((parts[0].strip(), parts[1].strip()))
        return cls.from_edges(pairs)

    @classmethod
    def load(cls, path: str | Path) -> "KeywordTaxonomy":
        """Parse the taxonomy file at `path`; a missing, unreadable,
        non-UTF-8 or malformed file raises ConfigurationError naming it."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read taxonomy {path}: {exc}") from exc
        try:
            return cls.loads(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{exc} in taxonomy {path}") from exc
