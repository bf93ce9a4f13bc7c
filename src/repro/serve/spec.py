"""Request validation: wire JSON in, a run-spec-compatible request out.

A serve request is one JSON object::

    {"id": "r1", "tenant": "alice", "system": "cfm",
     "params": {"n_procs": 8, "bank_cycle": 2, "cycles": 2000}}

``system``/``params`` are exactly a :func:`repro.obs.bench.run_spec` spec —
the picklable run-as-data convention the parallel sweep already relies on —
so a validated request dispatches to the same pure function a serial bench
run uses, and identical specs produce bit-identical reports either way.

Validation happens in the front-end process, *before* the request costs a
worker round-trip: unknown systems, unknown or missing parameter names
(checked against the runner's signature), non-JSON param values, engine
names the system's layer cannot run, and malformed fault-injection
descriptions all raise :class:`RequestError`, which the service turns
into a typed error response.

An optional ``"inject"`` member asks the worker to run the spec under a
seeded :class:`repro.faults.FaultPlan` (cfm only — the chaos-harness
runner).  The plan description is validated here; the plan itself is built
worker-side so the request stays plain JSON end to end.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.sim.criticality import TIERS

#: Parameters never accepted over the wire: observers are process-local
#: objects (probes can't ride a JSON request into a worker).
_UNSERVABLE_PARAMS = frozenset({"probe"})

#: Tenant labels are network input; keep them short and printable.
_MAX_TENANT_LEN = 64
DEFAULT_TENANT = "anonymous"


class RequestError(ValueError):
    """A malformed or unserveable request — a *client* error, answered with
    a typed error response, never a worker dispatch."""


@dataclass(frozen=True)
class ServeRequest:
    """One validated workload request."""

    id: str
    tenant: str
    system: str
    params: Dict[str, object] = field(default_factory=dict)
    #: Validated fault-plan description (worker builds the FaultPlan).
    inject: Optional[Dict[str, object]] = None
    #: QoS tier (repro.sim.criticality) — a front-end scheduling hint
    #: plus SLA-accounting label; deliberately NOT part of the worker
    #: payload, so identical specs at different tiers still dedupe,
    #: batch, and share cache entries.
    criticality: Optional[str] = None
    #: Per-request SLA deadline in wall milliseconds (accounting only).
    deadline_ms: Optional[float] = None

    @property
    def spec(self) -> Dict[str, object]:
        """The :func:`repro.obs.bench.run_spec`-compatible spec."""
        return {"system": self.system, "params": dict(self.params)}

    @property
    def payload(self) -> Dict[str, object]:
        """What actually crosses the process boundary to a worker."""
        out: Dict[str, object] = {"system": self.system,
                                  "params": dict(self.params)}
        if self.inject is not None:
            out["inject"] = dict(self.inject)
        return out


def _require_str(value: object, what: str, max_len: int = 256) -> str:
    if not isinstance(value, str) or not value or len(value) > max_len:
        raise RequestError(
            f"{what} must be a non-empty string of <= {max_len} chars, "
            f"got {value!r}"
        )
    if not value.isprintable():
        raise RequestError(f"{what} must be printable, got {value!r}")
    return value


@lru_cache(maxsize=None)
def _runner_params(system: str):
    """The parameters of ``system``'s :func:`repro.obs.bench.run_spec`
    runner (a fixed registry, so cached per process)."""
    from repro.obs.bench import SYSTEMS

    return inspect.signature(SYSTEMS[system]).parameters


def _validate_params(system: str, params: object) -> Dict[str, object]:
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise RequestError(f"params must be an object, got {type(params).__name__}")
    accepted = _runner_params(system)
    out: Dict[str, object] = {}
    for key, value in params.items():
        if not isinstance(key, str):
            raise RequestError(f"param names must be strings, got {key!r}")
        if key in _UNSERVABLE_PARAMS:
            raise RequestError(f"param {key!r} cannot be served")
        if key not in accepted:
            raise RequestError(
                f"unknown param {key!r} for system {system!r} "
                f"(valid: {' '.join(sorted(set(accepted) - _UNSERVABLE_PARAMS))})"
            )
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise RequestError(
                f"param {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
        out[key] = value
    return out


def _check_runnable(system: str, params: Dict[str, object]) -> None:
    """Would the runner accept ``params``?  Every required argument of its
    signature is present, and a pinned engine runs on the system's layer."""
    from repro.fastpath.engine import resolve_engine
    from repro.obs.bench import ENGINE_SYSTEMS, SYSTEM_ENGINE_LAYER

    missing = sorted(
        name for name, param in _runner_params(system).items()
        if param.default is inspect.Parameter.empty and name not in params
    )
    if missing:
        raise RequestError(
            f"missing required param(s) for system {system!r}: "
            f"{' '.join(missing)}"
        )
    if params.get("engine") is not None and system in ENGINE_SYSTEMS:
        try:
            resolve_engine(params["engine"],
                           layer=SYSTEM_ENGINE_LAYER.get(system, system))
        except ValueError as exc:
            raise RequestError(str(exc)) from None


def _int_field(obj: Dict[str, object], key: str, default: int) -> int:
    """``obj[key]`` (or ``default``) as a true int: bools and floats are
    refused rather than coerced."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"inject {key} must be an int, got {value!r}")
    return value


def _validate_inject(system: str, inject: object) -> Dict[str, object]:
    from repro.faults.plan import FAULT_KINDS, FaultEvent

    if system != "cfm":
        raise RequestError(
            f"inject is only served for system 'cfm', got {system!r}"
        )
    if not isinstance(inject, dict):
        raise RequestError(
            f"inject must be an object, got {type(inject).__name__}"
        )
    out: Dict[str, object] = {}
    if "events" in inject:
        events = inject["events"]
        if not isinstance(events, list) or not events:
            raise RequestError("inject.events must be a non-empty list")
        validated = []
        for ev in events:
            if not isinstance(ev, dict):
                raise RequestError(f"inject event must be an object, got {ev!r}")
            fields = {
                "kind": ev.get("kind"),
                "target": _int_field(ev, "target", 0),
                "start": _int_field(ev, "start", 0),
                "duration": _int_field(ev, "duration", 1),
                "extra": _int_field(ev, "extra", 0),
            }
            try:
                FaultEvent(**fields)  # its own kind and window checks
            except ValueError as exc:
                raise RequestError(str(exc)) from None
            validated.append(fields)
        out["events"] = validated
    else:
        kinds = inject.get("kinds", ("bank_stuck", "bank_slow"))
        if (not isinstance(kinds, (list, tuple)) or not kinds
                or any(k not in FAULT_KINDS for k in kinds)):
            raise RequestError(
                f"inject.kinds must be drawn from "
                f"{' '.join(sorted(FAULT_KINDS))}, got {kinds!r}"
            )
        out["kinds"] = list(kinds)
        for key, default in (("n_events", 3), ("horizon", 256)):
            value = _int_field(inject, key, default)
            if value < 1:
                raise RequestError(f"inject.{key} must be a positive int")
            out[key] = value
    out["seed"] = _int_field(inject, "seed", 0)
    rounds = _int_field(inject, "rounds", 2)
    if not 1 <= rounds <= 16:
        raise RequestError("inject.rounds must be an int in [1, 16]")
    out["rounds"] = rounds
    return out


def validate_request(obj: object,
                     default_id: Optional[str] = None) -> ServeRequest:
    """Validate one decoded JSON request into a :class:`ServeRequest`.

    Raises :class:`RequestError` naming exactly what is wrong; never lets
    a malformed request reach a worker."""
    from repro.obs.bench import SYSTEMS

    if not isinstance(obj, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    raw_id = obj.get("id", default_id)
    if isinstance(raw_id, int):
        raw_id = str(raw_id)
    req_id = _require_str(raw_id, "request id") if raw_id is not None else ""
    if not req_id:
        raise RequestError("request needs an 'id' (string or int)")
    tenant = obj.get("tenant", DEFAULT_TENANT)
    tenant = _require_str(tenant, "tenant", max_len=_MAX_TENANT_LEN)
    system = obj.get("system")
    if system not in SYSTEMS:
        raise RequestError(
            f"unknown system {system!r} (valid: {' '.join(sorted(SYSTEMS))})"
        )
    params = _validate_params(system, obj.get("params"))
    inject = None
    if obj.get("inject") is not None:
        inject = _validate_inject(system, obj["inject"])
    criticality = obj.get("criticality")
    if criticality is not None and criticality not in TIERS:
        raise RequestError(
            f"unknown criticality {criticality!r} (valid: {' '.join(TIERS)})"
        )
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if (isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0):
            raise RequestError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    unknown = set(obj) - {"id", "tenant", "system", "params", "inject",
                          "criticality", "deadline_ms", "op"}
    if unknown:
        raise RequestError(
            f"unknown request field(s): {' '.join(sorted(unknown))}"
        )
    _check_runnable(system, params)
    return ServeRequest(id=req_id, tenant=tenant, system=system,
                        params=params, inject=inject,
                        criticality=criticality, deadline_ms=deadline_ms)
