"""Kernel backends: which implementation serves the compiled hot paths.

The engine computes with numpy throughout.  What a backend selects is
the kernel tier behind the hot paths that dominate profiles: the
packet engine's event loops in :mod:`repro.simulation.kernel` (the
FIFO loop and the class-discipline loop serving Fair Share and
fixed-priority) and the Fair Share sorted prefix-sum queue laws in
:mod:`repro.core.fairshare` / :mod:`repro.core.signals`.  This package
is the single place that choice is resolved:

* :func:`resolve` — map a backend name (or the ``REPRO_BACKEND``
  environment variable) to a :class:`Backend`.  Unknown or unavailable
  names raise a loud :class:`~repro.errors.CLIError` listing what *is*
  available, never a silent fallback.
* :func:`use` / :func:`using` / :func:`active` — process-wide backend
  activation (``using`` is the scoped context-manager form).  The
  default is the plain numpy backend.
* :func:`fs_kernels_active` — the switch :func:`~repro.core.math_utils.
  pick_kernel` consults before routing ``method="auto"`` to the
  compiled Fair Share kernels.
* ``active().compiled`` — the matching switch for the packet engine:
  ``NetworkSimulation(engine="auto")`` resolves to the compiled event
  loops exactly when it is true, and to the Python ``"fast"`` engine
  otherwise (so under the default numpy backend).

Backend names
-------------

=============  ============================================================
``numpy``      pure-python/numpy kernels (always available; default)
``compiled``   the runtime-compiled C extension when a C compiler
               exists, otherwise the pure-python kernels
``cext``       force the C-extension tier (loud error when no C compiler)
=============  ============================================================

The compiled tier never changes results: every kernel is proven
bit-identical (same RNG bitstream, same float operation order) to the
pure-python/numpy engines by ``tests/integration/
test_kernel_equivalence.py`` and the ``compiled-equivalence`` fuzz
oracle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from ..errors import CLIError

__all__ = [
    "Backend", "BACKEND_NAMES", "available_backends", "resolve",
    "use", "using", "active", "reset", "fs_kernels_active",
]

#: Every backend name :func:`resolve` understands, in listing order.
BACKEND_NAMES = ("numpy", "compiled", "cext")


@dataclass(frozen=True)
class Backend:
    """One resolved backend: a kernel tier.

    Attributes:
        name: the resolved backend name (one of :data:`BACKEND_NAMES`).
        kernel_tier: which implementation serves the hot paths —
            ``"cext"`` or ``"python"`` (meaning: the pure-python/numpy
            kernels).
        description: one-line summary for ``selftest`` / ``--backend``
            listings.
    """

    name: str
    kernel_tier: str = "python"
    description: str = ""

    @property
    def compiled(self) -> bool:
        """True when the compiled (C) kernel tier is live."""
        return self.kernel_tier == "cext"


def _cext_possible() -> bool:
    """Cheap probe: a C compiler on PATH (the build itself is lazy)."""
    from . import _cext
    return _cext.compiler_available()


def available_backends() -> list:
    """Names from :data:`BACKEND_NAMES` usable in this environment."""
    names = ["numpy", "compiled"]  # never unavailable
    if _cext_possible():
        names.append("cext")
    return names


def _unavailable(name: str, why: str) -> CLIError:
    return CLIError(
        f"backend {name!r} is not available in this environment "
        f"({why}); available backends: "
        f"{', '.join(available_backends())}")


def resolve(name: Optional[str] = None) -> Backend:
    """Resolve a backend name (or ``REPRO_BACKEND``) to a :class:`Backend`.

    Args:
        name: one of :data:`BACKEND_NAMES`, or None to consult the
            ``REPRO_BACKEND`` environment variable (default
            ``"numpy"`` when that is unset or empty).

    Raises:
        CLIError: unknown name, or ``cext`` without a C compiler (or
            with a failing build).  The message lists the backends
            :data:`BACKEND_NAMES` offers; nothing ever silently
            degrades to numpy.

    ``"compiled"`` is the one gracefully-degrading name: it resolves
    to the C tier when it builds and to the pure-python kernels
    otherwise, because its contract is "same bits, faster when
    possible", not "a specific dependency".
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "").strip() or "numpy"
    name = str(name).strip().lower()
    if name not in BACKEND_NAMES:
        raise CLIError(
            f"unknown backend {name!r}; backends: "
            f"{', '.join(BACKEND_NAMES)} (available here: "
            f"{', '.join(available_backends())})")
    if name == "numpy":
        return Backend("numpy", "python",
                       "plain numpy (pure-python kernels)")
    if name == "compiled":
        from . import compiled
        tier = compiled.tier()
        return Backend("compiled", tier, f"best compiled tier ({tier})")
    # name == "cext"
    from . import _cext
    if not _cext.compiler_available():
        raise _unavailable("cext", "no C compiler (cc/gcc/clang) on PATH")
    if _cext.load() is None:
        raise _unavailable("cext", f"C build failed: {_cext.load_error()}")
    return Backend("cext", "cext", "runtime-compiled C kernels")


# ---------------------------------------------------------------------
# process-wide activation
# ---------------------------------------------------------------------
_ACTIVE: Optional[Backend] = None
_ENV_DEFAULT: Optional[Backend] = None
_ENV_SEEN: Optional[str] = None


def _default() -> Backend:
    """The ambient backend when none was activated explicitly:
    ``REPRO_BACKEND`` if set (resolved once, loudly), else numpy."""
    global _ENV_DEFAULT, _ENV_SEEN
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if _ENV_DEFAULT is None or env != _ENV_SEEN:
        _ENV_SEEN = env
        _ENV_DEFAULT = resolve(env or "numpy")
    return _ENV_DEFAULT


def active() -> Backend:
    """The backend currently in force (explicit > env > numpy)."""
    return _ACTIVE if _ACTIVE is not None else _default()


def use(backend) -> Backend:
    """Activate a backend process-wide; returns the resolved backend.

    Accepts a :class:`Backend` or a name (``None`` re-reads the
    environment).  ``use("numpy")`` restores the default behaviour.
    """
    global _ACTIVE
    _ACTIVE = backend if isinstance(backend, Backend) else resolve(backend)
    return _ACTIVE


def reset() -> None:
    """Drop any explicit activation and forget the cached env default."""
    global _ACTIVE, _ENV_DEFAULT, _ENV_SEEN
    _ACTIVE = None
    _ENV_DEFAULT = None
    _ENV_SEEN = None


@contextmanager
def using(backend):
    """Scoped :func:`use`: activate for the ``with`` block, restore
    the previous activation after."""
    global _ACTIVE
    previous = _ACTIVE
    use(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def fs_kernels_active() -> bool:
    """Should ``pick_kernel(method="auto")`` route the large-``n``
    Fair Share paths to the compiled kernels?

    True only when the active backend carries the live compiled tier.
    Under the default numpy backend this is False.
    """
    if not active().compiled:
        return False
    from . import compiled
    return compiled.fs_available()
