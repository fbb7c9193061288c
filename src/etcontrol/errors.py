"""Exception types shared across the toolkit."""


class DesignError(ValueError):
    """Raised when trigger design is infeasible for the supplied system.

    Covers non-Hurwitz closed loops, threshold requests above their
    admissible bounds, and invalid design weights.
    """


class SimulationError(RuntimeError):
    """Raised when a simulation cannot continue.

    Covers non-finite state derivatives and runaway triggering that
    indicates a misconfigured parameter set.
    """
