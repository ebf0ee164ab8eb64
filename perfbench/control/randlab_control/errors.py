"""Exception taxonomy shared across the bench."""


class RandlabError(Exception):
    """Base class for every error this package raises deliberately."""


class InconsistentFunctional(RandlabError):
    """Two axioms map comparable inputs to incomparable outputs."""


class GuardExceeded(RandlabError):
    """An exhaustive enumeration would overrun its configured budget."""


class DepthExhausted(RandlabError):
    """A coding step needs more branching than the tree holds."""


class SchemeError(RandlabError):
    """A layered coding scheme is misconfigured or ran into an empty class."""


class DensityError(RandlabError):
    """An open set fails the density needed to steer a decoder into it."""


class ScenarioError(RandlabError):
    """A scenario file is malformed or references unknown objects."""
