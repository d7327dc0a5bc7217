"""Pluggable intLP solver backends behind one declared, ordered interface.

The paper ran its Section-5 experiments on CPLEX; this reproduction started
with HiGHS-through-scipy hardwired plus a pure-Python branch-and-bound for
cross-checks.  The registry turns "which solver" into data: a backend is a
name, a :class:`BackendCapabilities` declaration, and a solve callable, and
every solve in the code base routes through :meth:`BackendRegistry.solve`.
Following Menouer & Le Cun's Bobpp framework (PAPERS.md), reproducibility
across heterogeneous solvers is preserved by making the backend choice a
*declared, ordered property* of each instance rather than a race: the
``auto`` policy is a deterministic function of the model's size and the
registration order, it is resolved in the dispatching process (never in a
worker), and the resolved name travels with the
:class:`~repro.ilp.solution.Solution` so reports can record it.

Resolution order of ``backend="auto"``:

1. the ``REPRO_ILP_BACKEND`` environment variable, when set (CI and the
   benchmarks use it to force one backend on every worker);
2. the first registered backend, in registration order, that proves
   optimality and whose declared size ceiling fits the model.

Capabilities are enforced at the call boundary: asking a backend for a
``time_limit`` or ``mip_rel_gap`` it declared absent raises
:class:`~repro.errors.SolverError` instead of silently ignoring the knob.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import InfeasibleError, SolverError, UnboundedError
from .model import IntegerProgram
from .solution import Solution, SolveStatus

__all__ = [
    "BackendCapabilities",
    "Backend",
    "BackendRegistry",
    "default_registry",
    "register_backend",
    "backend_request_token",
]

#: Environment variable overriding the ``auto`` backend choice.
BACKEND_ENV = "REPRO_ILP_BACKEND"


@dataclass(frozen=True)
class BackendCapabilities:
    """What a solver backend declares it can do.

    Attributes
    ----------
    time_limit:
        The backend honours a wall-clock limit in seconds.
    mip_rel_gap:
        The backend honours a relative MIP gap target.
    proves_optimality:
        An OPTIMAL status from this backend is a proof (the Section-5
        experiments only compare heuristics against proven optima).
    max_integer_variables:
        Declared size ceiling for the ``auto`` policy; ``None`` means
        unbounded.  Models above the ceiling are never auto-routed to this
        backend (an explicit ``backend=name`` still is).
    """

    time_limit: bool = True
    mip_rel_gap: bool = True
    proves_optimality: bool = True
    max_integer_variables: Optional[int] = None


@dataclass(frozen=True)
class Backend:
    """A registered solver backend: name + capabilities + solve callable.

    ``fn(program, time_limit=..., mip_rel_gap=...)`` must return a
    :class:`~repro.ilp.solution.Solution` using the shared
    :class:`~repro.ilp.solution.SolveStatus` vocabulary; unsupported
    keywords are simply not passed (the registry filters by capabilities).
    """

    name: str
    caps: BackendCapabilities
    fn: Callable[..., Solution]


class BackendRegistry:
    """Ordered registry of intLP backends with a deterministic auto policy."""

    def __init__(self) -> None:
        self._backends: Dict[str, Backend] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Registration / lookup
    # ------------------------------------------------------------------ #
    def register_backend(
        self,
        name: str,
        caps: BackendCapabilities,
        fn: Callable[..., Solution],
        aliases: Sequence[str] = (),
        replace_existing: bool = False,
    ) -> Backend:
        """Register *fn* as backend *name*; earlier registrations rank higher
        in the ``auto`` policy."""

        if name == "auto" or "auto" in aliases:
            raise SolverError("'auto' is reserved for the selection policy")
        if not replace_existing and (name in self._backends or name in self._aliases):
            raise SolverError(f"backend {name!r} is already registered")
        if not replace_existing:
            for alias in aliases:
                if alias in self._backends or alias in self._aliases:
                    raise SolverError(f"alias {alias!r} shadows a registered backend")
        backend = Backend(name=name, caps=caps, fn=fn)
        self._backends[name] = backend
        for alias in aliases:
            self._aliases[alias] = name
        return backend

    def names(self) -> List[str]:
        """Registered backend names, in registration (= auto priority) order."""

        return list(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends or name in self._aliases

    def get(self, name: str) -> Backend:
        canonical = self._aliases.get(name, name)
        try:
            return self._backends[canonical]
        except KeyError as exc:
            raise SolverError(
                f"unknown intLP backend {name!r}; available: "
                f"{sorted(set(self._backends) | set(self._aliases))}"
            ) from exc

    # ------------------------------------------------------------------ #
    # Auto policy
    # ------------------------------------------------------------------ #
    def choose(self, program: IntegerProgram) -> Backend:
        """Deterministically pick a backend for *program* (the ``auto`` policy)."""

        return self.choose_by_size(program.num_integer_variables)

    def choose_by_size(self, integer_variables: int) -> Backend:
        """The ``auto`` policy on a bare size: first registered backend that
        proves optimality and whose declared ceiling fits the model.

        Exposed separately so batch planners can assign per-instance
        backends in the dispatching process, before any model is built
        (the Bobpp-style "declared, ordered property" contract).
        """

        env = os.environ.get(BACKEND_ENV, "").strip()
        if env:
            return self.get(env)
        fallback: Optional[Backend] = None
        for backend in self._backends.values():
            ceiling = backend.caps.max_integer_variables
            if ceiling is not None and integer_variables > ceiling:
                continue
            if backend.caps.proves_optimality:
                return backend
            fallback = fallback or backend
        if fallback is not None:
            return fallback
        raise SolverError(
            f"no registered backend accepts a model with {integer_variables} "
            f"integer variables; available: {self.names()}"
        )

    def resolve(self, program: IntegerProgram, backend: str = "auto") -> Backend:
        """Resolve a backend request (``"auto"`` or a name) to a backend."""

        if backend == "auto":
            return self.choose(program)
        return self.get(backend)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        program: IntegerProgram,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        mip_rel_gap: float = 0.0,
        require_feasible: bool = False,
    ) -> Solution:
        """Solve *program* with the named (or auto-chosen) backend.

        The returned :class:`Solution` carries the resolved registry name in
        ``Solution.backend``.  When ``require_feasible`` is set an
        infeasible or unbounded outcome raises
        :class:`~repro.errors.InfeasibleError` /
        :class:`~repro.errors.UnboundedError` instead of returning a
        status-only solution.
        """

        chosen = self.resolve(program, backend)
        kwargs = {}
        if time_limit is not None:
            if not chosen.caps.time_limit:
                raise SolverError(
                    f"backend {chosen.name!r} declares no time-limit support"
                )
            kwargs["time_limit"] = float(time_limit)
        if mip_rel_gap:
            if not chosen.caps.mip_rel_gap:
                raise SolverError(
                    f"backend {chosen.name!r} declares no MIP-gap support"
                )
            kwargs["mip_rel_gap"] = float(mip_rel_gap)
        solution = chosen.fn(program, **kwargs)
        solution = replace(solution, backend=chosen.name)
        if require_feasible:
            if solution.status is SolveStatus.INFEASIBLE:
                raise InfeasibleError(f"model {program.name!r} is infeasible")
            if solution.status is SolveStatus.UNBOUNDED:
                raise UnboundedError(f"model {program.name!r} is unbounded")
        return solution


def backend_request_token(backend: str = "auto") -> str:
    """Stable cache-key token for a backend request.

    ``"auto"`` folds in the ``REPRO_ILP_BACKEND`` override (a forced backend
    must not share cached results with the unforced policy) without having
    to build the model the policy would size against.
    """

    if backend == "auto":
        env = os.environ.get(BACKEND_ENV, "").strip()
        return f"auto->{env}" if env else "auto"
    return backend


def _build_default_registry() -> BackendRegistry:
    # Imported lazily so the registry module stays importable without scipy
    # (a stubbed backend can then be registered in its place).  A backend
    # whose numeric dependencies are missing is simply not registered;
    # asking for it by name then raises the registry's usual unknown-backend
    # error, while the modelling layer keeps working.
    registry = BackendRegistry()
    try:
        from .scipy_backend import solve_with_scipy
    except ImportError:
        pass
    else:
        registry.register_backend(
            "scipy",
            BackendCapabilities(
                time_limit=True, mip_rel_gap=True, proves_optimality=True
            ),
            solve_with_scipy,
            aliases=("highs", "scipy-highs"),
        )
    try:
        from .branch_bound import solve_with_branch_and_bound
    except ImportError:
        pass
    else:
        registry.register_backend(
            "branch-bound",
            BackendCapabilities(
                time_limit=True,
                mip_rel_gap=True,
                proves_optimality=True,
                # The pure-Python solver is only meant for tens of integer
                # variables; auto never routes bigger models to it.
                max_integer_variables=60,
            ),
            solve_with_branch_and_bound,
            aliases=("branch_bound", "bb"),
        )
    return registry


_DEFAULT: Optional[BackendRegistry] = None


def default_registry() -> BackendRegistry:
    """The process-wide registry used by :func:`repro.ilp.solve`."""

    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_default_registry()
    return _DEFAULT


def register_backend(
    name: str,
    caps: BackendCapabilities,
    fn: Callable[..., Solution],
    aliases: Sequence[str] = (),
    replace_existing: bool = False,
) -> Backend:
    """Register a backend on the default registry (plug-in entry point)."""

    return default_registry().register_backend(
        name, caps, fn, aliases=aliases, replace_existing=replace_existing
    )
