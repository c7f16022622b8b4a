"""Exception types shared across the toolkit."""

from __future__ import annotations


class HamrepError(Exception):
    """Base class for all toolkit errors."""


class DimMismatch(HamrepError):
    """Operands live in different ambient dimensions."""


class EmptyBody(HamrepError):
    """A convex body was constructed from, or reduced to, nothing."""


class ImproperFunction(HamrepError):
    """A grid function is identically +inf (or otherwise improper)."""


class UnboundedSummand(HamrepError):
    """Epigraphical sum requested with a summand whose conjugate domain
    is not bounded inside the working window."""


class CapTooLow(HamrepError):
    """Epigraph truncation height below the function minimum."""


class UnknownName(HamrepError):
    """Lookup of a built-in object by name failed."""


class HypothesisViolation(HamrepError):
    """A perturbation family's convexity probe found a member that is not
    finite or not convex in p; nothing else raises it."""


class GridUnderflow(HamrepError):
    """A working grid window misses the effective domain entirely."""


class MissingC(HamrepError):
    """Compact-control construction needs a growth modulus c(t) and none
    is attached to the Hamiltonian."""


class BLCViolation(HamrepError):
    """Sampled Lagrangian values exceed the bound lambda on its domain."""


class NoncompactControl(HamrepError):
    """Convexification requested for a control set that is not compact."""


class ConfigError(HamrepError):
    """Run configuration is malformed or inconsistent."""
