"""Interconnect model (paper Section 2.1, Figure 2).

The platform is a (virtual) clique: there is a bidirectional link
``link_{u,v}`` of bandwidth ``b_{u,v}`` between every processor pair, plus
links from the special input processor ``P_in`` to every processor and from
every processor to the special output processor ``P_out``.  Sending a
message of size ``X`` over a link of bandwidth ``b`` takes ``X / b`` time
units (linear cost model).  Contention is handled by the **one-port model**
(enforced analytically in :mod:`repro.core.metrics` and operationally in
:mod:`repro.simulation.oneport`).

Two concrete topologies are provided:

* :class:`UniformTopology` — a single bandwidth ``b`` shared by every link
  (the *Fully Homogeneous* / *Communication Homogeneous* setting);
* :class:`HeterogeneousTopology` — arbitrary per-link bandwidths (the
  *Fully Heterogeneous* setting), stored as explicit vectors/matrix.

Endpoints are addressed by 1-based processor index, or by the sentinels
:data:`IN` and :data:`OUT` for ``P_in`` / ``P_out``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

from ..exceptions import InvalidPlatformError

__all__ = [
    "Endpoint",
    "IN",
    "OUT",
    "Node",
    "LinkTopology",
    "UniformTopology",
    "HeterogeneousTopology",
]


class Endpoint(enum.Enum):
    """Sentinels for the special input/output processors."""

    IN = "in"
    OUT = "out"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"P_{self.value}"


IN = Endpoint.IN
OUT = Endpoint.OUT

#: A communication endpoint: a 1-based processor index, or IN / OUT.
Node = Union[int, Endpoint]


def _check_bandwidth(value: float, label: str) -> float:
    value = float(value)
    if not value > 0 or not math.isfinite(value):
        raise InvalidPlatformError(
            f"bandwidth {label} must be positive and finite, got {value}"
        )
    return value


class LinkTopology:
    """Abstract interface of an interconnect.

    Concrete subclasses implement :meth:`bandwidth`.  The transfer-time
    helper and the uniformity predicate are shared.
    """

    #: number of compute processors the topology spans
    num_processors: int

    def bandwidth(self, src: Node, dst: Node) -> float:
        """Bandwidth ``b_{src,dst}`` of the link between two endpoints."""
        raise NotImplementedError

    def transfer_time(self, size: float, src: Node, dst: Node) -> float:
        """Time to ship ``size`` data units from ``src`` to ``dst``.

        Linear cost model: ``size / b_{src,dst}``.  A zero-size message is
        free on any link.
        """
        if size < 0:
            raise ValueError(f"message size must be non-negative, got {size}")
        if size == 0:
            return 0.0
        if src == dst:
            # Intra-processor hand-off: data stays in place (paper: edges
            # e_{i,u,u} of the Theorem 4 graph carry no communication cost).
            return 0.0
        return size / self.bandwidth(src, dst)

    @property
    def is_uniform(self) -> bool:
        """True when every link (including in/out links) has equal bandwidth."""
        raise NotImplementedError

    def _check_node(self, node: Node) -> None:
        if isinstance(node, Endpoint):
            return
        if not 1 <= node <= self.num_processors:
            raise InvalidPlatformError(
                f"processor index must be in 1..{self.num_processors}, "
                f"got {node}"
            )


@dataclass(frozen=True)
class UniformTopology(LinkTopology):
    """Clique where every link has the same bandwidth ``b``.

    This models both *Fully Homogeneous* and *Communication Homogeneous*
    platforms (the paper's eq. (1) applies).
    """

    num_processors: int
    link_bandwidth: float

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise InvalidPlatformError(
                f"topology needs at least one processor, got {self.num_processors}"
            )
        _check_bandwidth(self.link_bandwidth, "b")

    def bandwidth(self, src: Node, dst: Node) -> float:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise InvalidPlatformError(f"no link from {src} to itself")
        return self.link_bandwidth

    @property
    def is_uniform(self) -> bool:
        return True


class HeterogeneousTopology(LinkTopology):
    """Clique with per-link bandwidths (the *Fully Heterogeneous* setting).

    Parameters
    ----------
    in_bandwidths:
        ``m`` values; entry ``u-1`` is ``b_{in,u}``.
    out_bandwidths:
        ``m`` values; entry ``u-1`` is ``b_{u,out}``.
    link_bandwidths:
        ``m x m`` symmetric matrix; entry ``[u-1][v-1]`` is ``b_{u,v}``.
        Diagonal entries are ignored (a processor never sends to itself).
    in_out_bandwidth:
        Bandwidth of the direct ``P_in -> P_out`` link.  It never appears
        in a latency formula (the pipeline has at least one stage) but the
        simulator needs a defined value; defaults to the maximum bandwidth.
    """

    def __init__(
        self,
        in_bandwidths: Sequence[float],
        out_bandwidths: Sequence[float],
        link_bandwidths: Sequence[Sequence[float]],
        in_out_bandwidth: float | None = None,
    ) -> None:
        m = len(in_bandwidths)
        if m < 1:
            raise InvalidPlatformError("topology needs at least one processor")
        if len(out_bandwidths) != m:
            raise InvalidPlatformError(
                f"expected {m} out-bandwidths, got {len(out_bandwidths)}"
            )
        if len(link_bandwidths) != m or any(len(row) != m for row in link_bandwidths):
            raise InvalidPlatformError(
                f"link bandwidth matrix must be {m}x{m}"
            )
        self.num_processors = m
        self._bin = tuple(
            _check_bandwidth(b, f"b_in,{u + 1}") for u, b in enumerate(in_bandwidths)
        )
        self._bout = tuple(
            _check_bandwidth(b, f"b_{u + 1},out") for u, b in enumerate(out_bandwidths)
        )
        rows = []
        for u, row in enumerate(link_bandwidths):
            entries = []
            for v, b in enumerate(row):
                if u == v:
                    entries.append(float("inf"))
                else:
                    entries.append(_check_bandwidth(b, f"b_{u + 1},{v + 1}"))
            rows.append(tuple(entries))
        self._links = tuple(rows)
        for u in range(m):
            for v in range(u + 1, m):
                if self._links[u][v] != self._links[v][u]:
                    raise InvalidPlatformError(
                        f"links are bidirectional: b_{u + 1},{v + 1} "
                        f"({self._links[u][v]}) != b_{v + 1},{u + 1} "
                        f"({self._links[v][u]})"
                    )
        candidates = list(self._bin) + list(self._bout)
        for u in range(m):
            for v in range(m):
                if u != v:
                    candidates.append(self._links[u][v])
        # the bandwidths are immutable tuples and every scalar latency
        # call asks, so uniformity is decided once here
        self._is_uniform = len(set(candidates)) == 1
        if in_out_bandwidth is None:
            in_out_bandwidth = max(candidates)
        self._b_in_out = _check_bandwidth(in_out_bandwidth, "b_in,out")

    def bandwidth(self, src: Node, dst: Node) -> float:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise InvalidPlatformError(f"no link from {src} to itself")
        if src is IN and dst is OUT or src is OUT and dst is IN:
            return self._b_in_out
        if src is IN:
            return self._bin[dst - 1]  # type: ignore[operator]
        if dst is IN:
            return self._bin[src - 1]  # type: ignore[operator]
        if dst is OUT:
            return self._bout[src - 1]  # type: ignore[operator]
        if src is OUT:
            return self._bout[dst - 1]  # type: ignore[operator]
        return self._links[src - 1][dst - 1]

    @property
    def is_uniform(self) -> bool:
        return self._is_uniform

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeterogeneousTopology):
            return NotImplemented
        return (
            self._bin == other._bin
            and self._bout == other._bout
            and self._links == other._links
            and self._b_in_out == other._b_in_out
        )

    def __hash__(self) -> int:
        return hash((self._bin, self._bout, self._links, self._b_in_out))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeterogeneousTopology(m={self.num_processors}, "
            f"bin={self._bin}, bout={self._bout})"
        )
