"""Deterministic numpy tagging model (lexicon-fusion emission + CRF viterbi).

Stands in for the reference's torch LEBert + BiLSTM + CRF stack
(``CC/model.py:34-49``, ``CC/LEBert.py:172-196``, ``CC/birnncrf.py:6-41``,
``CC/crf.py:15-158``): weights are seeded deterministically so the Ray
pipeline and the single-process oracle agree bit-for-bit (SURVEY.md §7 M3).
``TaggerModel`` is the one emission model: the KG job, the oracle and the
registry all tag through it.
"""

from ccnerx_ray.model.crf import viterbi_decode, CRFParams
from ccnerx_ray.model.tagger import TaggerModel

__all__ = ["viterbi_decode", "CRFParams", "TaggerModel"]
