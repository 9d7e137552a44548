"""Exception hierarchy shared by all gridfactor modules.

Input problems (bad documents, inconsistent data) derive from
:class:`InputError`; failures of an analysis step on otherwise valid data
derive from :class:`AnalysisError`.  The CLI maps the former to exit code 1
and the latter to exit code 2.
"""


class GridFactorError(Exception):
    """Base class for all gridfactor errors."""


class InputError(GridFactorError):
    """A document or argument is malformed or violates a model invariant."""


class ParseError(InputError):
    """The network document cannot be parsed."""


class ValidationError(InputError):
    """The parsed network violates model invariants (disconnected, duplicate edge, ...)."""


class UnknownEdgeError(InputError):
    """An edge id does not exist in the network."""


class UnbalancedInjectionError(InputError):
    """Injections do not sum to zero within tolerance."""


class AnalysisError(GridFactorError):
    """An analysis step cannot proceed on the given network."""


class DisconnectedError(AnalysisError):
    """The operation requires a connected network."""


class SingularError(AnalysisError):
    """A matrix factorization hit a numerically singular pivot."""


class TooLargeError(AnalysisError):
    """A network is past the forest oracle's spanning-tree cap, or an oracle answer past float range."""


class BridgeError(AnalysisError):
    """A forest-based factor is undefined because the outaged line is a bridge."""


class BridgeOutageError(BridgeError):
    """An outage distribution factor is undefined for a bridge outage."""


class CutSetError(AnalysisError):
    """The outage set disconnects the network."""


class ZeroFactorError(AnalysisError):
    """The requested construction needs a nonzero distribution factor."""

