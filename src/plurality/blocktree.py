"""Block tree with token-gated atomic append.

The tree itself never inspects payloads: a payload is anything with a
``canonical()`` text form (hashed into the block id) and a short
``describe()`` label.  Validation is the caller's business: a caller
validates a payload against the selected head first and asks for a
token only once it has passed, so the tree does not depend on the
validator.

Appending is split into the two steps a racing environment would see:
``get_token`` (obtain an append token against the current head) and
``commit`` (consume the token and attach the block in one atomic
step).  The token oracle is what turns the tree into a chain:
a Frugal(k) oracle lets at most k children ever attach under one
block, so Frugal(1) forces a single chain, while a Prodigal oracle
lets every fork through.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class BlockTreeError(Exception):
    pass


class UnknownBlock(BlockTreeError):
    pass


class StaleHead(BlockTreeError):
    """The target is no longer the selected head."""


class AlreadyConsumed(BlockTreeError):
    """Each append token is single-use."""


class FrugalLimitReached(BlockTreeError):
    """The target block has already spawned k children."""


class RetryExhausted(BlockTreeError):
    """An append kept losing the head race."""


@dataclass(frozen=True)
class OracleConfig:
    """Token issuing policy: ``prodigal`` or ``frugal`` with bound k."""

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("prodigal", "frugal"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.kind == "frugal" and self.k < 1:
            raise ValueError("frugal oracle needs k >= 1")

    @classmethod
    def prodigal(cls) -> "OracleConfig":
        return cls("prodigal")

    @classmethod
    def frugal(cls, k: int = 1) -> "OracleConfig":
        return cls("frugal", k)

    @classmethod
    def from_text(cls, text: str) -> "OracleConfig":
        kind, _, k = text.partition(":")
        if kind == "prodigal":
            return cls.prodigal()
        if kind == "frugal":
            return cls.frugal(int(k) if k else 1)
        raise ValueError(f"unknown oracle spec {text!r}")

    def __str__(self):
        return "prodigal" if self.kind == "prodigal" else f"frugal:{self.k}"


@dataclass(frozen=True)
class Block:
    id: str
    parent: str | None
    payload: object
    height: int


@dataclass
class Token:
    """Single-use permission to attach one specific block.

    ``target`` is the block the append was validated against (the head
    at grant time) and ``carried`` is the id the new block will have.
    """

    token_id: int
    target: str
    carried: str
    consumed: bool = False


def block_id(canonical_payload: str, parent: str | None) -> str:
    material = (parent or "genesis") + "\n" + canonical_payload
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class TokenOracle:
    """Grants and consumes append tokens under a spending policy."""

    def __init__(self, config: OracleConfig):
        self.config = config
        self._next_id = 0
        self._spent: dict[str, int] = {}  # target block id -> consumed count

    def grant(self, target: str, carried: str) -> Token:
        t = Token(self._next_id, target, carried)
        self._next_id += 1
        return t

    def consume(self, token: Token) -> None:
        if token.consumed:
            raise AlreadyConsumed(f"token {token.token_id} was already spent")
        spent = self._spent.get(token.target, 0)
        if self.config.kind == "frugal" and spent >= self.config.k:
            raise FrugalLimitReached(
                f"block {token.target[:12]} already has {spent} of {self.config.k} children"
            )
        token.consumed = True
        self._spent[token.target] = spent + 1

    def consumed_count(self, target: str) -> int:
        return self._spent.get(target, 0)


class BlockTree:
    """Append-only tree of payload-carrying blocks with one selected chain.

    The selected head is the block of greatest height, ties going to the
    smallest id.  Heights only grow along a branch, so that block is
    always a leaf, and ``commit`` keeps it and the leaf set up to date:
    neither ``select`` nor ``leaves`` scans the tree.
    """

    def __init__(self, genesis_payload, oracle: OracleConfig = OracleConfig.frugal(1)):
        gid = block_id(genesis_payload.canonical(), None)
        self._genesis = Block(gid, None, genesis_payload, 0)
        self._blocks: dict[str, Block] = {gid: self._genesis}
        self._children: dict[str, list[str]] = {gid: []}
        self._append_tick: dict[str, int] = {gid: 0}
        self._leaves: set[str] = {gid}
        self._sorted_leaves: tuple[str, ...] | None = (gid,)  # None after a commit
        self._head = gid
        self.oracle = TokenOracle(oracle)

    # -- reading ----------------------------------------------------------

    @property
    def genesis(self) -> Block:
        return self._genesis

    def __contains__(self, bid: str) -> bool:
        return bid in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, bid: str) -> Block:
        try:
            return self._blocks[bid]
        except KeyError:
            raise UnknownBlock(f"no block {bid!r}") from None

    def children(self, bid: str) -> tuple[str, ...]:
        return tuple(self._children[bid])

    def leaves(self) -> tuple[str, ...]:
        """Ids of the blocks without children, in id order."""
        if self._sorted_leaves is None:
            self._sorted_leaves = tuple(sorted(self._leaves))
        return self._sorted_leaves

    def chain_to(self, bid: str) -> tuple[str, ...]:
        out = []
        cur: str | None = bid
        while cur is not None:
            b = self.block(cur)
            out.append(b.id)
            cur = b.parent
        return tuple(reversed(out))

    def append_tick(self, bid: str) -> int:
        self.block(bid)
        return self._append_tick[bid]

    def select(self) -> str:
        """The head of the longest chain, ties to the smallest id."""
        return self._head

    # -- writing ----------------------------------------------------------

    def get_token(self, head_id: str, payload) -> Token:
        """An append token for ``payload`` on ``head_id``.

        ``head_id`` must still be the selected head (else StaleHead).
        The token stays valid even if the head later moves — whether it
        can still be spent is the token oracle's decision at commit.
        """
        if head_id != self._head:
            raise StaleHead(f"{head_id[:12]} is not the selected head")
        return self.oracle.grant(head_id, block_id(payload.canonical(), head_id))

    def commit(self, token: Token, payload, *, tick: int = 0) -> Block:
        """Atomically consume the token and attach its block.

        Nothing is mutated if consumption fails, and no observable
        state exists between consumption and attachment.
        """
        if token.consumed:
            raise AlreadyConsumed(f"token {token.token_id} was already spent")
        expected = block_id(payload.canonical(), token.target)
        if expected != token.carried:
            raise BlockTreeError("token was granted for a different payload")
        if expected in self._blocks:
            raise BlockTreeError(f"block {expected[:12]} already exists")
        self.oracle.consume(token)
        parent = self.block(token.target)
        b = Block(expected, parent.id, payload, parent.height + 1)
        self._blocks[b.id] = b
        self._children[parent.id].append(b.id)
        self._children[b.id] = []
        self._append_tick[b.id] = tick
        self._leaves.discard(parent.id)
        self._leaves.add(b.id)
        self._sorted_leaves = None
        head = self._blocks[self._head]
        if b.height > head.height or (b.height == head.height and b.id < head.id):
            self._head = b.id
        return b

    # -- export -----------------------------------------------------------

    def snapshot(self) -> str:
        """Deterministic structured-text dump, blocks in id order."""
        lines = []
        for bid in sorted(self._blocks):
            b = self._blocks[bid]
            parent = b.parent if b.parent is not None else "-"
            lines.append(
                f"{b.id} parent={parent} height={b.height} {b.payload.describe()}"
            )
        return "\n".join(lines) + "\n"
