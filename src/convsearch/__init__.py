"""Conversational passage ranking with multi-aspect query generation.

The package covers the full loop of a conversational search system:
indexing and first-stage retrieval (BM25 or learned-sparse dot product),
LLM-backed query rewriting with a record/replay exchange cache, rank
fusion and ensemble reranking, grounded response generation, persona
statement classification, and TREC-style evaluation with per-depth and
per-topic slices.

Each module's ``__all__`` declares its public names; the package
re-exports all of them.
"""

from .conversation import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .fusion import *  # noqa: F403
from .index import *  # noqa: F403
from .llm import *  # noqa: F403
from .offline import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .prompts import *  # noqa: F403

__version__ = "0.1.0"
