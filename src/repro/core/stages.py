"""Typed artifact/stage-graph engine: the pipeline as a declarative DAG.

Propeller's defining property (PAPER.md §3-§4) is a *relinking pipeline
of distinct, cacheable phases* -- baseline build, metadata build,
profile collection, whole-program analysis, relink.  This module makes
that structure first-class instead of a hard-coded call sequence:

* :class:`Artifact` -- a named, typed value flowing between stages
  (``Artifact[IRProfile]("ir_profile")``).
* :class:`Stage` -- one phase, declaring the artifacts it consumes and
  produces, the ``phase:*`` span it runs under, its degradation policy
  (:class:`Fallback` or propagate) and the ``phase_seconds`` keys it
  accounts.
* :class:`StageGraph` -- registers stages, validates the wiring
  (missing producer, duplicate producer, type mismatch, cycle -- each a
  structured :class:`StageGraphError`), topologically sorts, and
  executes through one driver.

The driver applies every cross-cutting layer *uniformly*, where the
imperative ``PropellerPipeline.run()`` used to hand-weave them into
each phase:

* **Tracing** -- contiguous stages sharing a ``phase`` name run inside
  one ``phase:<name>`` span (the golden-pinned span names are produced
  here, nowhere else).  Stage bodies still emit their own inner spans
  through the shared tracer.
* **Fault degradation** -- a stage whose body exhausts its retry budget
  (:class:`~repro.faults.RetriesExhausted`) falls back to its declared
  :class:`Fallback` and the run is marked degraded, with the
  ``degraded:*`` span and ``faults.degraded`` counter emitted by the
  driver; a stage with no fallback (the product builds) propagates.
  ``skip_if_degraded`` lets a stage declare "when that upstream stage
  degraded, use my fallback silently" -- how WPA is skipped when the
  hardware profile never materialized.
* **Accounting** -- per-stage ``phase_seconds`` entries are recorded
  through :meth:`StageContext.time` and assembled in canonical stage
  order, so any valid execution order (or a resumed run) reports the
  same mapping.
* **Stores** -- the persistent action store, the
  :class:`~repro.runtime.FunctionSolveCache` and the counters sink all
  ride on the :class:`StageContext`; stages reach them through one
  object instead of importing pipeline internals.

Partial execution is built in: ``execute(stop_after=...)`` runs a
prefix of the graph, the produced :class:`ArtifactSet` serializes to a
directory (self-verifying envelopes, see :mod:`repro.runtime.cache`),
and a later ``execute(resume=...)`` replays the loaded artifacts and
runs only the remaining stages -- bit-identical to one full run,
because artifacts are content, not accounting.

``StageGraph.describe()`` returns the DAG as plain data (and
:meth:`StageGraph.to_dot` as Graphviz) -- what the ``repro-stages``
CLI prints and CI validates against the committed golden topology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults import RetriesExhausted

__all__ = [
    "Artifact",
    "ArtifactSet",
    "ExecutionObserver",
    "Fallback",
    "Stage",
    "StageContext",
    "StageExecution",
    "StageGraph",
    "StageGraphError",
    "StageRecord",
]

#: Schema version of ``describe()``'s JSON layout and the serialized
#: :class:`ArtifactSet` manifest.  Bump on incompatible change.
STAGE_GRAPH_SCHEMA_VERSION = 1

#: Manifest file name inside a serialized artifact directory.
MANIFEST_FILENAME = "manifest.json"


class StageGraphError(Exception):
    """A structural problem with a stage graph (or its execution).

    ``kind`` is machine-readable: ``"cycle"``, ``"missing-producer"``,
    ``"duplicate-producer"``, ``"type-mismatch"``, ``"unknown-stage"``,
    ``"invalid-order"``, ``"resume-mismatch"`` or ``"bad-output"``.
    ``stage`` / ``artifact`` carry the offending names when known.
    """

    def __init__(self, kind: str, message: str, *,
                 stage: Optional[str] = None,
                 artifact: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.stage = stage
        self.artifact = artifact


class _TypedArtifact:
    """Partial application of :class:`Artifact` to a payload type.

    Enables the declaration idiom ``Artifact[IRProfile]("ir_profile")``.
    """

    __slots__ = ("_type",)

    def __init__(self, type_: type):
        self._type = type_

    def __call__(self, name: str) -> "Artifact":
        return Artifact(name, self._type)


@dataclass(frozen=True)
class Artifact:
    """A named, typed value produced by one stage and consumed by others.

    ``type`` is enforced twice: statically at graph validation (the
    producer's declared type must match every consumer's), and at
    runtime on the produced value (``isinstance``, skipped for the
    escape hatch ``object`` which also admits ``None`` -- optional
    artifacts like the stale-matching recovery declare ``object``).
    """

    name: str
    type: type = object

    def __class_getitem__(cls, item: type) -> _TypedArtifact:
        return _TypedArtifact(item)

    @property
    def type_name(self) -> str:
        return getattr(self.type, "__name__", str(self.type))


@dataclass(frozen=True)
class Fallback:
    """A stage's declared degradation: what to produce when its retry
    budget exhausts (or a ``skip_if_degraded`` upstream degraded).

    ``produce(ctx, inputs)`` must return the same output mapping the
    stage body would, including its :meth:`StageContext.time` entries.
    ``degrades=False`` makes the fallback *silent*: the value is used
    but the run is not marked degraded (the incremental pre-collection
    wants this -- the pipeline's own profile stage will degrade later,
    once, with the right reason).
    """

    produce: Callable[["StageContext", Mapping[str, Any]], Mapping[str, Any]]
    degrades: bool = True
    doc: str = ""


@dataclass(frozen=True)
class Stage:
    """One pipeline phase: typed inputs/outputs plus cross-cutting policy."""

    name: str
    run: Callable[["StageContext", Mapping[str, Any]], Mapping[str, Any]]
    inputs: Tuple[Artifact, ...] = ()
    outputs: Tuple[Artifact, ...] = ()
    #: ``phase:<phase>`` span group; contiguous stages sharing it run
    #: inside one span.  ``None`` = no phase span (e.g. stale matching).
    phase: Optional[str] = None
    #: Degradation policy: ``None`` propagates
    #: :class:`~repro.faults.RetriesExhausted` (product builds).
    fallback: Optional[Fallback] = None
    #: Upstream stage names whose degradation silently short-circuits
    #: this stage to its fallback (no span, no degradation mark).
    skip_if_degraded: Tuple[str, ...] = ()
    #: ``phase_seconds`` keys this stage accounts (declared for
    #: introspection; recorded via :meth:`StageContext.time`).
    time_keys: Tuple[str, ...] = ()
    doc: str = ""


@dataclass
class StageRecord:
    """How one stage resolved during an execution."""

    name: str
    #: ``computed`` | ``fallback`` | ``skipped`` | ``replayed``
    status: str = "computed"
    #: Degradation reason (== stage name) when the stage fell back
    #: on an exhausted retry budget with a degrading fallback.
    degraded: bool = False
    #: ``phase_seconds`` entries recorded by the stage, in record order.
    times: List[Tuple[str, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "status": self.status,
                "degraded": self.degraded,
                "times": [[k, v] for k, v in self.times]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageRecord":
        return cls(name=data["name"], status=data["status"],
                   degraded=bool(data.get("degraded", False)),
                   times=[(k, float(v)) for k, v in data.get("times", [])])


class StageContext:
    """What a stage body sees: the pipeline and every cross-cutting service.

    One object, handed to every ``run``/``fallback`` callable, so the
    stages depend on a single seam instead of reaching into pipeline
    internals: the tracer (inner spans), the counters sink, the build
    system with its persistent action store, and the function-solve
    cache of the incremental engine.
    """

    def __init__(self, pipeline: Any):
        self.pipeline = pipeline
        self._record: Optional[StageRecord] = None

    @property
    def config(self) -> Any:
        return self.pipeline.config

    @property
    def tracer(self) -> Any:
        return self.pipeline.tracer

    @property
    def counters(self) -> Any:
        return self.pipeline.counters

    @property
    def buildsys(self) -> Any:
        return self.pipeline.buildsys

    @property
    def solve_cache(self) -> Any:
        return self.pipeline.solve_cache

    def time(self, key: str, sim_seconds: float) -> None:
        """Record one ``phase_seconds`` entry for the current stage."""
        if self._record is None:
            raise RuntimeError("StageContext.time() outside a running stage")
        self._record.times.append((key, float(sim_seconds)))


class ExecutionObserver:
    """Driver observer: per-stage and post-assembly hooks.

    Cross-cutting accounting that must see the whole run -- the
    incremental engine's dirty-plan/solve-reuse summary -- rides here
    instead of being woven into a second copy of the driver.
    """

    def stage_finished(self, stage: Stage, record: StageRecord) -> None:
        """Called after each stage resolves (computed/fallback/skipped)."""

    def finalize(self, result: Any, execution: "StageExecution") -> None:
        """Called once the executed artifacts are assembled into a result."""


class ArtifactSet:
    """The values a (possibly partial) execution produced, serializable.

    ``save``/``load`` persist every artifact as a self-verifying
    envelope (:func:`repro.runtime.cache.write_envelope`) plus a JSON
    manifest carrying the stage records and caller metadata -- enough
    for a later process to resume exactly where ``stop_after`` left
    off.  A corrupted artifact file fails loudly at load (resume must
    never silently recompute half a run against mismatched inputs).
    """

    def __init__(self, values: Optional[Dict[str, Any]] = None,
                 records: Optional[Dict[str, StageRecord]] = None,
                 meta: Optional[Dict[str, str]] = None):
        self.values: Dict[str, Any] = dict(values or {})
        #: Stage name -> record, in stage-completion order.
        self.records: Dict[str, StageRecord] = dict(records or {})
        #: Caller metadata validated on resume (program/config digests).
        self.meta: Dict[str, str] = dict(meta or {})

    def save(self, directory: "str | Path") -> Path:
        from repro.runtime.cache import write_envelope

        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        for name, value in self.values.items():
            write_envelope(root / f"{name}.artifact", value)
        manifest = {
            "schema_version": STAGE_GRAPH_SCHEMA_VERSION,
            "artifacts": sorted(self.values),
            "records": [r.as_dict() for r in self.records.values()],
            "meta": dict(self.meta),
        }
        (root / MANIFEST_FILENAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True))
        return root

    @classmethod
    def load(cls, directory: "str | Path") -> "ArtifactSet":
        from repro.runtime.cache import read_envelope

        root = Path(directory)
        path = root / MANIFEST_FILENAME
        if not path.exists():
            raise StageGraphError(
                "resume-mismatch", f"no artifact manifest at {path}")
        manifest = json.loads(path.read_text())
        version = manifest.get("schema_version")
        if version != STAGE_GRAPH_SCHEMA_VERSION:
            raise StageGraphError(
                "resume-mismatch",
                f"artifact-set schema v{version!r} is not the supported "
                f"v{STAGE_GRAPH_SCHEMA_VERSION}")
        values = {}
        for name in manifest.get("artifacts", []):
            try:
                values[name] = read_envelope(root / f"{name}.artifact")
            except (OSError, ValueError) as exc:
                raise StageGraphError(
                    "resume-mismatch",
                    f"artifact {name!r} in {root} is unreadable: {exc}",
                    artifact=name) from exc
        records = {
            r["name"]: StageRecord.from_dict(r)
            for r in manifest.get("records", [])
        }
        return cls(values=values, records=records,
                   meta=dict(manifest.get("meta", {})))


class StageExecution:
    """One driver run over a graph: artifacts, records, degradations."""

    def __init__(self, graph: "StageGraph", artifacts: ArtifactSet,
                 observers: Tuple[ExecutionObserver, ...] = (),
                 stop_after: Optional[str] = None):
        self.graph = graph
        self.artifacts = artifacts
        self.observers = observers
        self.stop_after = stop_after

    def value(self, name: str) -> Any:
        try:
            return self.artifacts.values[name]
        except KeyError:
            raise StageGraphError(
                "missing-producer",
                f"artifact {name!r} was not produced by this execution "
                f"(stopped after {self.stop_after!r})", artifact=name
            ) from None

    @property
    def complete(self) -> bool:
        """True when every stage of the graph has a resolution."""
        return all(s.name in self.artifacts.records for s in self.graph.stages)

    def degraded_reasons(self) -> Tuple[str, ...]:
        """Degraded stage names, in canonical stage order."""
        return tuple(
            s.name for s in self.graph.stages
            if self.artifacts.records.get(s.name) is not None
            and self.artifacts.records[s.name].degraded
        )

    def phase_seconds(self) -> Dict[str, float]:
        """All recorded time entries, assembled in canonical stage order.

        Canonical order (graph registration order refined by
        dependencies) rather than execution order, so a permuted or
        resumed execution reports the identical mapping.
        """
        times: Dict[str, float] = {}
        for stage in self.graph.stages:
            record = self.artifacts.records.get(stage.name)
            if record is None:
                continue
            for key, value in record.times:
                times[key] = value
        return times

    def save(self, directory: "str | Path") -> Path:
        return self.artifacts.save(directory)


class StageGraph:
    """A validated, topologically sorted set of stages."""

    def __init__(self, stages: Sequence[Stage],
                 seeds: Sequence[Artifact] = ()):
        self.stages: Tuple[Stage, ...] = tuple(stages)
        #: Artifacts injected by the caller at execute() time.
        self.seeds: Tuple[Artifact, ...] = tuple(seeds)
        self._by_name: Dict[str, Stage] = {}
        self._producer: Dict[str, Stage] = {}
        self.validate()
        self._order: Tuple[str, ...] = tuple(
            s.name for s in self._topo_sort())

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise a structured :class:`StageGraphError` on bad wiring."""
        by_name: Dict[str, Stage] = {}
        types: Dict[str, Tuple[str, str]] = {}  # artifact -> (type, where)

        def check_type(artifact: Artifact, where: str) -> None:
            seen = types.get(artifact.name)
            if seen is None:
                types[artifact.name] = (artifact.type_name, where)
            elif seen[0] != artifact.type_name:
                raise StageGraphError(
                    "type-mismatch",
                    f"artifact {artifact.name!r} is declared as "
                    f"{seen[0]} by {seen[1]} but as "
                    f"{artifact.type_name} by {where}",
                    artifact=artifact.name)

        producer: Dict[str, Stage] = {}
        seed_names = set()
        for artifact in self.seeds:
            check_type(artifact, "the seed set")
            seed_names.add(artifact.name)
        for stage in self.stages:
            if stage.name in by_name:
                raise StageGraphError(
                    "duplicate-producer",
                    f"two stages named {stage.name!r}", stage=stage.name)
            by_name[stage.name] = stage
            for artifact in stage.outputs:
                check_type(artifact, f"stage {stage.name!r}")
                if artifact.name in seed_names:
                    raise StageGraphError(
                        "duplicate-producer",
                        f"artifact {artifact.name!r} is both a seed and an "
                        f"output of stage {stage.name!r}",
                        stage=stage.name, artifact=artifact.name)
                other = producer.get(artifact.name)
                if other is not None:
                    raise StageGraphError(
                        "duplicate-producer",
                        f"artifact {artifact.name!r} is produced by both "
                        f"{other.name!r} and {stage.name!r}",
                        stage=stage.name, artifact=artifact.name)
                producer[artifact.name] = stage
        for stage in self.stages:
            for artifact in stage.inputs:
                check_type(artifact, f"stage {stage.name!r}")
                if artifact.name not in producer and artifact.name not in seed_names:
                    raise StageGraphError(
                        "missing-producer",
                        f"stage {stage.name!r} consumes {artifact.name!r}, "
                        "which no stage produces and no seed provides",
                        stage=stage.name, artifact=artifact.name)
            for upstream in stage.skip_if_degraded:
                if upstream not in by_name:
                    raise StageGraphError(
                        "unknown-stage",
                        f"stage {stage.name!r} skips on unknown stage "
                        f"{upstream!r}", stage=stage.name)
                if by_name[upstream].fallback is None:
                    raise StageGraphError(
                        "unknown-stage",
                        f"stage {stage.name!r} skips on {upstream!r}, "
                        "which has no fallback and can never degrade",
                        stage=stage.name)
            if stage.skip_if_degraded and stage.fallback is None:
                raise StageGraphError(
                    "unknown-stage",
                    f"stage {stage.name!r} declares skip_if_degraded but "
                    "no fallback to skip to", stage=stage.name)
        self._by_name = by_name
        self._producer = producer
        self._topo_sort(by_name, producer)  # raises on cycle

    def _dependencies(self, stage: Stage,
                      producer: Optional[Dict[str, Stage]] = None
                      ) -> List[Stage]:
        producer = self._producer if producer is None else producer
        deps = []
        seen = set()
        for artifact in stage.inputs:
            dep = producer.get(artifact.name)
            if dep is not None and dep.name not in seen:
                seen.add(dep.name)
                deps.append(dep)
        return deps

    def _topo_sort(self, by_name: Optional[Dict[str, Stage]] = None,
                   producer: Optional[Dict[str, Stage]] = None) -> List[Stage]:
        """Kahn's algorithm, ties broken by registration order."""
        by_name = self._by_name if by_name is None else by_name
        producer = self._producer if producer is None else producer
        index = {s.name: i for i, s in enumerate(self.stages)}
        pending: Dict[str, int] = {}
        dependents: Dict[str, List[Stage]] = {}
        for stage in self.stages:
            deps = self._dependencies(stage, producer)
            pending[stage.name] = len(deps)
            for dep in deps:
                dependents.setdefault(dep.name, []).append(stage)
        ready = sorted(
            (s for s in self.stages if pending[s.name] == 0),
            key=lambda s: index[s.name])
        order: List[Stage] = []
        while ready:
            stage = ready.pop(0)
            order.append(stage)
            for dependent in dependents.get(stage.name, ()):
                pending[dependent.name] -= 1
                if pending[dependent.name] == 0:
                    # Insert keeping registration order among ready stages.
                    pos = 0
                    while (pos < len(ready)
                           and index[ready[pos].name] < index[dependent.name]):
                        pos += 1
                    ready.insert(pos, dependent)
        if len(order) != len(self.stages):
            stuck = sorted(n for n, c in pending.items() if c > 0)
            raise StageGraphError(
                "cycle",
                f"stage graph has a cycle through {', '.join(stuck)}",
                stage=stuck[0] if stuck else None)
        return order

    # -- introspection -------------------------------------------------

    @property
    def order(self) -> Tuple[str, ...]:
        """The canonical topological order (deterministic)."""
        return self._order

    def stage(self, name: str) -> Stage:
        try:
            return self._by_name[name]
        except KeyError:
            raise StageGraphError(
                "unknown-stage", f"no stage named {name!r}", stage=name
            ) from None

    def describe(self) -> Dict[str, Any]:
        """The DAG as plain data (JSON-able, schema-versioned)."""
        edges = []
        for stage in self.stages:
            for artifact in stage.inputs:
                dep = self._producer.get(artifact.name)
                edges.append({
                    "from": dep.name if dep is not None else "<seed>",
                    "to": stage.name,
                    "artifact": artifact.name,
                })
        return {
            "schema_version": STAGE_GRAPH_SCHEMA_VERSION,
            "seeds": [
                {"name": a.name, "type": a.type_name} for a in self.seeds
            ],
            "stages": [
                {
                    "name": s.name,
                    "phase": s.phase,
                    "inputs": [{"name": a.name, "type": a.type_name}
                               for a in s.inputs],
                    "outputs": [{"name": a.name, "type": a.type_name}
                                for a in s.outputs],
                    "fallback": s.fallback is not None,
                    "degrades": bool(s.fallback and s.fallback.degrades),
                    "skip_if_degraded": list(s.skip_if_degraded),
                    "time_keys": list(s.time_keys),
                    "doc": s.doc,
                }
                for s in self.stages
            ],
            "order": list(self._order),
            "edges": edges,
        }

    def to_dot(self) -> str:
        """The DAG as Graphviz DOT (stages as boxes, artifacts as edges)."""
        lines = [
            "digraph stages {",
            "  rankdir=LR;",
            '  node [shape=box, fontname="Helvetica"];',
            '  edge [fontname="Helvetica", fontsize=10];',
        ]
        for artifact in self.seeds:
            lines.append(
                f'  "seed:{artifact.name}" [label="{artifact.name}\\n'
                f'({artifact.type_name})", shape=ellipse, style=dashed];')
        for stage in self.stages:
            label = stage.name
            if stage.phase:
                label += f"\\nphase:{stage.phase}"
            if stage.fallback is not None:
                label += "\\n[fallback]"
            lines.append(f'  "{stage.name}" [label="{label}"];')
        for stage in self.stages:
            for artifact in stage.inputs:
                dep = self._producer.get(artifact.name)
                src = dep.name if dep is not None else f"seed:{artifact.name}"
                lines.append(
                    f'  "{src}" -> "{stage.name}" '
                    f'[label="{artifact.name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------

    def _validate_order(self, order: Sequence[str]) -> List[Stage]:
        """A caller-supplied execution order must be a valid topo order."""
        names = list(order)
        if sorted(names) != sorted(s.name for s in self.stages):
            raise StageGraphError(
                "invalid-order",
                f"execution order {names} does not name every stage "
                "exactly once")
        position = {name: i for i, name in enumerate(names)}
        for stage in self.stages:
            for dep in self._dependencies(stage):
                if position[dep.name] > position[stage.name]:
                    raise StageGraphError(
                        "invalid-order",
                        f"stage {stage.name!r} runs before its dependency "
                        f"{dep.name!r}", stage=stage.name)
        return [self._by_name[name] for name in names]

    def execute(
        self,
        ctx: StageContext,
        seeds: Mapping[str, Any],
        *,
        stop_after: Optional[str] = None,
        resume: Optional[ArtifactSet] = None,
        order: Optional[Sequence[str]] = None,
        observers: Sequence[ExecutionObserver] = (),
    ) -> StageExecution:
        """Run the graph (or the prefix up to ``stop_after``).

        ``resume`` replays an earlier partial execution: stages whose
        records it carries are not re-run, their artifacts and
        accounting are taken as-is.  ``order``, when given, must be a
        valid topological order of the whole graph (validated); the
        default is the canonical order.
        """
        missing = [a.name for a in self.seeds if a.name not in seeds]
        if missing:
            raise StageGraphError(
                "missing-producer",
                f"execute() was not given seed artifact(s) {missing}",
                artifact=missing[0])
        if stop_after is not None:
            self.stage(stop_after)  # raises unknown-stage

        plan = (self._validate_order(order) if order is not None
                else [self._by_name[name] for name in self._order])

        artifacts = ArtifactSet()
        artifacts.values.update(seeds)
        if resume is not None:
            artifacts.values.update(resume.values)
            # Replayed stages keep their original accounting (status,
            # degradations, recorded times); only stages the resumed
            # set does not carry will run below.
            artifacts.records.update(
                (name, record) for name, record in resume.records.items()
                if name in self._by_name)
        execution = StageExecution(self, artifacts, tuple(observers),
                                   stop_after=stop_after)

        open_phase: Optional[str] = None
        open_span = None

        def close_phase():
            nonlocal open_phase, open_span
            if open_span is not None:
                open_span.__exit__(None, None, None)
            open_phase = None
            open_span = None

        try:
            for stage in plan:
                prior = artifacts.records.get(stage.name)
                if prior is not None:
                    # Replayed from a resumed artifact set: keep its
                    # accounting, run nothing, open no span.
                    continue
                if stage.phase != open_phase:
                    close_phase()
                record = StageRecord(name=stage.name)
                inputs = {a.name: artifacts.values[a.name]
                          for a in stage.inputs}
                degraded_now = {
                    name for name, r in artifacts.records.items() if r.degraded
                }
                ctx._record = record
                try:
                    if stage.skip_if_degraded and degraded_now.intersection(
                            stage.skip_if_degraded):
                        record.status = "skipped"
                        outputs = stage.fallback.produce(ctx, inputs)
                    else:
                        if stage.phase is not None and open_span is None:
                            open_span = ctx.tracer.span(
                                f"phase:{stage.phase}", category="phase")
                            open_span.__enter__()
                            open_phase = stage.phase
                        try:
                            outputs = stage.run(ctx, inputs)
                        except RetriesExhausted as exc:
                            if stage.fallback is None:
                                raise
                            record.status = "fallback"
                            outputs = stage.fallback.produce(ctx, inputs)
                            if stage.fallback.degrades:
                                record.degraded = True
                                ctx.counters.incr("faults.degraded")
                                with ctx.tracer.span(
                                        f"degraded:{stage.name}",
                                        category="fault") as sp:
                                    sp.note(kind=exc.kind,
                                            attempts=exc.attempts,
                                            events=",".join(exc.events))
                finally:
                    ctx._record = None
                self._bind_outputs(stage, outputs, artifacts)
                artifacts.records[stage.name] = record
                for observer in execution.observers:
                    observer.stage_finished(stage, record)
                if stage.name == stop_after:
                    break
        except BaseException:
            close_phase()
            raise
        close_phase()
        return execution

    def _bind_outputs(self, stage: Stage, outputs: Mapping[str, Any],
                      artifacts: ArtifactSet) -> None:
        declared = {a.name: a for a in stage.outputs}
        if set(outputs) != set(declared):
            raise StageGraphError(
                "bad-output",
                f"stage {stage.name!r} returned {sorted(outputs)}, "
                f"declared {sorted(declared)}", stage=stage.name)
        for name, value in outputs.items():
            artifact = declared[name]
            if artifact.type is not object and not isinstance(
                    value, artifact.type):
                raise StageGraphError(
                    "type-mismatch",
                    f"stage {stage.name!r} produced {type(value).__name__} "
                    f"for artifact {name!r} declared {artifact.type_name}",
                    stage=stage.name, artifact=name)
            artifacts.values[name] = value
