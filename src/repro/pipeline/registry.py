"""String-keyed registry of FIB representations with option schemas.

A representation registers once, with a decorator::

    @register(
        name="prefix-dag",
        title="pDAG",
        paper_section="§4",
        size_model="above·(ptr+lgδ) + interior·2·ptr + δ·lgδ",
        options=(OptionSpec("barrier", int, None, "leaf-push barrier λ"),),
        supports_update=True,
    )
    class PrefixDagAdapter(RepresentationAdapter):
        ...

and every layer — analysis tables, the lookup simulator, the CLI's
``compress``/``bench``/``compare`` subcommands, the benchmark harness,
the parity tests — enumerates it automatically. Options are validated
against the declared schema at :func:`build` time, so a typo'd or
ill-typed option fails fast with the list of what the representation
actually accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.fib import Fib


@dataclass(frozen=True)
class OptionSpec:
    """One build-time option a representation accepts."""

    name: str
    type: type
    default: Any
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Type-check (and int→float widen) a caller-supplied value.

        ``None`` is accepted only for options whose default is ``None``
        (e.g. the entropy-chosen barrier); bools are rejected for
        int-typed options so ``barrier=True`` cannot slip in as 1.
        """
        if value is None:
            if self.default is None:
                return None
        elif isinstance(value, bool) and self.type is not bool:
            pass  # fall through to the error
        elif isinstance(value, self.type):
            return value
        elif self.type is float and isinstance(value, int):
            return float(value)
        elif isinstance(value, str):
            try:
                return self.type(value)
            except ValueError:
                pass
        raise TypeError(
            f"option {self.name!r} expects {self.type.__name__}, "
            f"got {value!r} ({type(value).__name__})"
        )


@dataclass(frozen=True)
class RepresentationSpec:
    """Registry record of one representation."""

    name: str
    factory: Callable[..., Any]
    title: str                     # display name (Table 2's engine column)
    description: str
    paper_section: str
    size_model: str
    options: Tuple[OptionSpec, ...] = ()
    supports_update: bool = False
    supports_trace: bool = False
    supports_flat: bool = False    # compiles to a pointerless flat program
    trace_step_cycles: Optional[float] = None  # cost-model cycles per step
    heavy_trace: bool = False      # per-lookup primitive replay is costly

    def option(self, name: str) -> Optional[OptionSpec]:
        for spec in self.options:
            if spec.name == name:
                return spec
        return None

    def resolve_options(self, overrides: Dict[str, Any]) -> Dict[str, Any]:
        """Defaults merged with type-checked overrides; unknown keys fail."""
        known = {spec.name for spec in self.options}
        unknown = set(overrides) - known
        if unknown:
            accepted = ", ".join(sorted(known)) or "(none)"
            raise ValueError(
                f"representation {self.name!r} does not accept option(s) "
                f"{sorted(unknown)}; accepted: {accepted}"
            )
        resolved = {spec.name: spec.default for spec in self.options}
        for key, value in overrides.items():
            resolved[key] = self.option(key).coerce(value)
        return resolved


_REGISTRY: Dict[str, RepresentationSpec] = {}


def register(
    name: str,
    *,
    title: Optional[str] = None,
    description: str = "",
    paper_section: str = "",
    size_model: str = "",
    options: Tuple[OptionSpec, ...] = (),
    supports_update: bool = False,
    supports_trace: bool = False,
    supports_flat: bool = False,
    trace_step_cycles: Optional[float] = None,
    heavy_trace: bool = False,
):
    """Class decorator adding a representation factory to the registry.

    The decorated factory is called as ``factory(fib, **options)`` and
    must return a :class:`~repro.pipeline.base.CompressedFib`. The
    ``name`` is stamped onto the class (``cls.name``) and the spec is
    attached as ``cls.spec``.
    """
    if not name or name != name.strip().lower():
        raise ValueError(f"registry names are non-empty lower-case keys, got {name!r}")

    def decorate(factory):
        if name in _REGISTRY:
            raise ValueError(f"representation {name!r} already registered")
        doc = (factory.__doc__ or "").strip()
        spec = RepresentationSpec(
            name=name,
            factory=factory,
            title=title or name,
            description=description or (doc.splitlines()[0] if doc else ""),
            paper_section=paper_section,
            size_model=size_model,
            options=options,
            supports_update=supports_update,
            supports_trace=supports_trace,
            supports_flat=supports_flat,
            trace_step_cycles=trace_step_cycles,
            heavy_trace=heavy_trace,
        )
        factory.name = name
        factory.spec = spec
        _REGISTRY[name] = spec
        return factory

    return decorate


def names() -> List[str]:
    """All registered representation names, sorted."""
    return sorted(_REGISTRY)


def get(name: str) -> RepresentationSpec:
    """Spec for ``name``; raises KeyError listing what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown representation {name!r}; registered: {', '.join(names())}"
        ) from None


def specs() -> List[RepresentationSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in names()]


def trace_capable() -> List[RepresentationSpec]:
    """Specs whose representations feed the cache simulator."""
    return [spec for spec in specs() if spec.supports_trace]


def flat_capable() -> List[RepresentationSpec]:
    """Specs whose representations compile to the flat lookup plane."""
    return [spec for spec in specs() if spec.supports_flat]


def option_overrides(option: str, value: Any) -> Dict[str, Dict[str, Any]]:
    """An overrides dict giving ``option=value`` to every registered
    representation whose schema accepts that option — the common way a
    CLI flag (``--barrier``, ``--stride``) fans out across the registry.
    """
    return {
        spec.name: {option: value}
        for spec in specs()
        if spec.option(option) is not None
    }


def build(name: str, fib: Fib, **options):
    """Build representation ``name`` from a tabular FIB.

    Options are validated against the registered schema; omitted options
    take their declared defaults.
    """
    spec = get(name)
    resolved = spec.resolve_options(options)
    return spec.factory(fib, **resolved)


def build_all(
    fib: Fib,
    only: Optional[List[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build every registered representation (or the ``only`` subset).

    ``overrides`` maps representation name → option dict; options for a
    representation not being built are ignored. When both ``prefix-dag``
    and ``serialized-dag`` are selected with the same barrier, the
    serialized image reuses the prefix DAG's fold instead of folding the
    FIB a second time (the dominant build cost).
    """
    overrides = overrides or {}
    selected = only if only is not None else names()
    share_fold = (
        "prefix-dag" in selected
        and "serialized-dag" in selected
        and overrides.get("serialized-dag", {}).get("barrier")
        == overrides.get("prefix-dag", {}).get("barrier")
    )
    prefix_dag = (
        build("prefix-dag", fib, **overrides.get("prefix-dag", {}))
        if share_fold
        else None
    )
    built: Dict[str, Any] = {}
    for name in selected:  # result keys follow the caller's order
        if name == "prefix-dag" and prefix_dag is not None:
            built[name] = prefix_dag
        elif name == "serialized-dag" and prefix_dag is not None:
            from repro.pipeline.adapters import SerializedDagAdapter

            # Sharing the fold must not skip the option check.
            get(name).resolve_options(overrides.get(name, {}))
            built[name] = SerializedDagAdapter.from_dag(fib, prefix_dag.backend)
        else:
            built[name] = build(name, fib, **overrides.get(name, {}))
    return built
