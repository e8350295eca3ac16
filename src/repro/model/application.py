"""Application model: the dataflow DAG ``A = (M, E)`` of Sec. III-A.

An :class:`Application` is a directed acyclic graph whose nodes are
:class:`Microservice` objects (containerised, with an image size and a
resource-requirement tuple) and whose edges are :class:`Dataflow`
objects carrying a payload size in MB from an *upstage* microservice to
a *downstage* one.

The paper's applications each contain two *synchronisation barriers*:
a downstage microservice may only start once all of its upstage
dependencies have finished.  We expose those barriers as
:meth:`Application.stages` — the topological generations of the DAG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .units import require_non_negative, require_positive


@dataclass(frozen=True)
class ResourceRequirements:
    """The paper's ``req(m_i) = ⟨CORE, CPU, MEM, STOR⟩`` tuple.

    Attributes
    ----------
    cores:
        Minimum number of CPU cores the microservice needs.
    cpu_mi:
        Processing load in millions of instructions (MI) required to
        process the microservice's input dataflows.
    memory_gb:
        Minimum memory in GB.
    storage_gb:
        Minimum *scratch* storage in GB (the container image size is
        accounted separately via :attr:`Microservice.size_gb`).
    """

    cores: int = 1
    cpu_mi: float = 0.0
    memory_gb: float = 0.0
    storage_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        require_non_negative(self.cpu_mi, "cpu_mi")
        require_non_negative(self.memory_gb, "memory_gb")
        require_non_negative(self.storage_gb, "storage_gb")

    def scaled(self, cpu_factor: float) -> "ResourceRequirements":
        """Return a copy with the CPU load scaled by ``cpu_factor``."""
        require_positive(cpu_factor, "cpu_factor")
        return ResourceRequirements(
            cores=self.cores,
            cpu_mi=self.cpu_mi * cpu_factor,
            memory_gb=self.memory_gb,
            storage_gb=self.storage_gb,
        )


@dataclass(frozen=True)
class Microservice:
    """A containerised microservice ``(m_i, Size_mi)``.

    Attributes
    ----------
    name:
        Unique name within the application (e.g. ``"ha-train"``).
    image:
        Repository name of the container image (e.g. ``"vp-ha-train"``).
        Registries map this to concrete references such as
        ``sina88/vp-ha-train`` (Docker Hub) or
        ``dcloud2.itec.aau.at/aau/vp-ha-train`` (regional) — Table I.
    size_gb:
        Containerised image size in GB (``Size_mi``).
    requirements:
        Resource requirements ``req(m_i)``.
    ingress_mb:
        External input payload in MB fetched from outside the DAG
        (e.g. the camera stream feeding *transcode* or the S3-hosted
        Amazon-reviews dataset feeding *retrieve* in the paper's case
        studies).  Charged as transmission time over the ingress
        channel; zero for microservices fed solely by upstage flows.
    warm_fraction:
        Fraction of the image's bytes shared with images assumed
        already resident on any device (common base layers — e.g. the
        HA/LA train/infer pairs share their ML base).  The paper's
        whole-image deployment model cannot express layer dedup, yet
        its Table II completion times for several services are shorter
        than a cold full-image pull allows; this factor is the
        calibrated whole-image approximation of that sharing.  A cold
        deployment transfers ``(1 − warm_fraction) × size_gb``.
    """

    name: str
    image: str
    size_gb: float
    requirements: ResourceRequirements = field(default_factory=ResourceRequirements)
    ingress_mb: float = 0.0
    warm_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("microservice name must be non-empty")
        if not self.image:
            raise ValueError(f"microservice {self.name!r}: image must be non-empty")
        require_non_negative(self.size_gb, "size_gb")
        require_non_negative(self.ingress_mb, "ingress_mb")
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ValueError(
                f"warm_fraction must be in [0, 1], got {self.warm_fraction}"
            )

    @property
    def cold_pull_gb(self) -> float:
        """Bytes (in GB) a cold deployment actually transfers."""
        return self.size_gb * (1.0 - self.warm_fraction)


@dataclass(frozen=True)
class Dataflow:
    """A dataflow edge ``df_ui`` from ``src`` (upstage) to ``dst``.

    Attributes
    ----------
    src, dst:
        Names of the upstage / downstage microservices.
    size_mb:
        Payload transferred along the edge, in MB (``Size_ui``).
    """

    src: str
    dst: str
    size_mb: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop dataflow on {self.src!r}")
        require_non_negative(self.size_mb, "size_mb")


class CycleError(ValueError):
    """Raised when an application graph contains a directed cycle."""


class Application:
    """A dataflow application: a DAG of microservices.

    Parameters
    ----------
    name:
        Application name (e.g. ``"video-processing"``).
    microservices:
        The node set.  Names must be unique.
    dataflows:
        The edge set.  Endpoints must name existing microservices;
        parallel edges between the same pair are rejected.

    The constructor validates acyclicity eagerly, so any constructed
    ``Application`` is guaranteed to be a DAG.
    """

    def __init__(
        self,
        name: str,
        microservices: Iterable[Microservice] = (),
        dataflows: Iterable[Dataflow] = (),
    ) -> None:
        if not name:
            raise ValueError("application name must be non-empty")
        self.name = name
        self._services: Dict[str, Microservice] = {}
        self._flows: Dict[Tuple[str, str], Dataflow] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}
        for ms in microservices:
            self.add_microservice(ms)
        for df in dataflows:
            self.add_dataflow(df)
        # Fail fast on cycles so downstream code can rely on DAG-ness.
        self.topological_order()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_microservice(self, ms: Microservice) -> None:
        """Add a node; rejects duplicate names."""
        if ms.name in self._services:
            raise ValueError(f"duplicate microservice {ms.name!r} in {self.name!r}")
        self._services[ms.name] = ms
        self._succ[ms.name] = []
        self._pred[ms.name] = []

    def add_dataflow(self, df: Dataflow) -> None:
        """Add an edge; endpoints must exist and the edge must be new.

        Raises :class:`CycleError` if the edge would create a cycle.
        """
        for endpoint in (df.src, df.dst):
            if endpoint not in self._services:
                raise KeyError(
                    f"dataflow endpoint {endpoint!r} not in application {self.name!r}"
                )
        key = (df.src, df.dst)
        if key in self._flows:
            raise ValueError(f"duplicate dataflow {df.src!r} -> {df.dst!r}")
        if self._reaches(df.dst, df.src):
            raise CycleError(
                f"dataflow {df.src!r} -> {df.dst!r} would create a cycle"
            )
        self._flows[key] = df
        self._succ[df.src].append(df.dst)
        self._pred[df.dst].append(df.src)

    def _reaches(self, start: str, goal: str) -> bool:
        """True if ``goal`` is reachable from ``start`` via existing edges."""
        if start == goal:
            return True
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def microservices(self) -> Mapping[str, Microservice]:
        """Read-only name → microservice mapping (``M``)."""
        return dict(self._services)

    @property
    def dataflows(self) -> Sequence[Dataflow]:
        """All dataflow edges (``E``), in insertion order."""
        return list(self._flows.values())

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, name: object) -> bool:
        return name in self._services

    def __iter__(self) -> Iterator[Microservice]:
        return iter(self._services.values())

    def service(self, name: str) -> Microservice:
        """Look up a microservice by name (KeyError if absent)."""
        return self._services[name]

    def flow(self, src: str, dst: str) -> Dataflow:
        """Look up the dataflow on edge ``src -> dst`` (KeyError if absent)."""
        return self._flows[(src, dst)]

    def predecessors(self, name: str) -> List[str]:
        """Upstage microservices of ``name`` (dependency order preserved)."""
        return list(self._pred[name])

    def successors(self, name: str) -> List[str]:
        """Downstage microservices of ``name``."""
        return list(self._succ[name])

    def in_flows(self, name: str) -> List[Dataflow]:
        """All dataflows entering ``name``."""
        return [self._flows[(p, name)] for p in self._pred[name]]

    def out_flows(self, name: str) -> List[Dataflow]:
        """All dataflows leaving ``name``."""
        return [self._flows[(name, s)] for s in self._succ[name]]

    def sources(self) -> List[str]:
        """Microservices with no upstage dependencies."""
        return [n for n in self._services if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Microservices with no downstage dependents."""
        return [n for n in self._services if not self._succ[n]]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn topological sort; deterministic w.r.t. insertion order.

        Raises :class:`CycleError` on cyclic graphs (unreachable through
        the public API, kept as a defence for subclassing).
        """
        indeg = {n: len(self._pred[n]) for n in self._services}
        queue = deque(n for n in self._services if indeg[n] == 0)
        order: List[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in self._succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(order) != len(self._services):
            raise CycleError(f"application {self.name!r} contains a cycle")
        return order

    def stages(self) -> List[List[str]]:
        """Topological generations — the synchronisation barriers.

        Stage *k* contains every microservice whose longest dependency
        chain has length *k*.  All members of a stage may execute
        concurrently; a barrier separates consecutive stages.  For the
        paper's two case studies this yields three stages separated by
        the two barriers described in Sec. IV-B.
        """
        level: Dict[str, int] = {}
        for node in self.topological_order():
            preds = self._pred[node]
            level[node] = 1 + max((level[p] for p in preds), default=-1)
        n_stages = 1 + max(level.values(), default=-1)
        out: List[List[str]] = [[] for _ in range(n_stages)]
        for node in self._services:  # insertion order within a stage
            out[level[node]].append(node)
        return out

    def stage_of(self, name: str) -> int:
        """Stage index of ``name`` (0-based)."""
        for idx, stage in enumerate(self.stages()):
            if name in stage:
                return idx
        raise KeyError(name)

    def critical_path_mi(self) -> float:
        """Largest cumulative ``cpu_mi`` along any dependency chain."""
        best: Dict[str, float] = {}
        for node in self.topological_order():
            own = self._services[node].requirements.cpu_mi
            incoming = max((best[p] for p in self._pred[node]), default=0.0)
            best[node] = own + incoming
        return max(best.values(), default=0.0)

    def total_image_gb(self) -> float:
        """Sum of all image sizes (lower bound on registry traffic)."""
        return sum(ms.size_gb for ms in self._services.values())

    def total_dataflow_mb(self) -> float:
        """Sum of all dataflow payload sizes."""
        return sum(df.size_mb for df in self._flows.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Application({self.name!r}, services={len(self._services)}, "
            f"flows={len(self._flows)})"
        )
