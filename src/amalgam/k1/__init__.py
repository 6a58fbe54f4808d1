"""Truncated witnessed-class machinery: structures, membership checkers,
free extensions, amalgamation, trace adjunction, and labeled sequences."""

from .structure import (  # noqa: F401
    DEFAULT_TRUNC,
    FreeExtensionWitness,
    EMPTY_WITNESS,
    K1Structure,
    K1Witness,
    build_member,
    derive_witness,
    enumerate_members,
    minimal_model,
)
from .p1 import (  # noqa: F401
    P1Context,
    P1Element,
    bare_generator,
    materialize,
)
from .freepart import FreeFn, ONE, ZERO, var  # noqa: F401
from .checks import (  # noqa: F401
    check_K1,
    check_Kminus1,
    check_free_extension,
    compose_free_witnesses,
    union_of_chain,
)
from .embeddings import (  # noqa: F401
    MatchEmbedding,
    TransportMap,
    enumerate_matches,
    extend_match,
    is_isomorphic_k1,
    is_valid_match,
)
