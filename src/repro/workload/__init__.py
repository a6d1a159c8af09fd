"""Workload generation: the decentralized news system of Section 4.

Peers generate news articles described by metadata element-value pairs
(title, author, date, size, ...). Keys are obtained by hashing single or
concatenated pairs [FeBi04] after dropping globally-known stop words
(:mod:`repro.workload.stopwords`); the evaluation scenario indexes 2,000
articles x 20 keys = 40,000 unique keys. Queries over those keys follow a
Zipf(1.2) popularity distribution [Srip01]; the streams are built from
:mod:`repro.workloads` models, optionally time-varying to exercise the
adaptivity claims of Section 5.2, and emit
:class:`~repro.workload.queries.QueryEvent` records.
"""

from repro.workload.stopwords import STOP_WORDS, is_stop_word, strip_stop_words
from repro.workload.metadata import MetadataKey, NewsArticle, extract_keys
from repro.workload.generator import CorpusConfig, NewsCorpus, generate_corpus
from repro.workload.queries import QueryEvent
from repro.workload.trace import QueryTrace, record_trace

__all__ = [
    "STOP_WORDS",
    "is_stop_word",
    "strip_stop_words",
    "MetadataKey",
    "NewsArticle",
    "extract_keys",
    "CorpusConfig",
    "NewsCorpus",
    "generate_corpus",
    "QueryEvent",
    "QueryTrace",
    "record_trace",
]
