"""Modal-logic workbench: syntax, Kripke semantics, translations, proofs.

The package decides validity across the modal cube over K, checks Hilbert
proofs, hunts countermodels, and verifies translation faithfulness and
frame correspondences on exhaustive finite grids.
"""

from .classify import ClassificationResult, classify, classify_corpus, corpus
from .correspond import CounterFrame, Holds, correspondence_check, loeb_suite
from .countermodel import export_dot, find_countermodel
from .decide import (Invalid, ResourceLimitExceeded, TableauResult, Valid,
                     cross_check, decide)
from .hilbert import (ALL_LOGICS, SCHEMAS, AxiomSchemaId, Logic, Proof,
                      check_proof, parse_proof_script, serialize_proof)
from .kripke import (FrameProperty, KripkeModel, dump_model, eval_deep,
                     has_property, load_model, valid_in_model)
from .syntax import (Formula, Schema, Signature, desugar, parse, parse_schema,
                     pretty, print_core)
from .translate import check_faithfulness, translate_max, translate_min

__version__ = "0.1.0"

__all__ = [
    "ALL_LOGICS", "AxiomSchemaId", "ClassificationResult", "CounterFrame",
    "Formula", "FrameProperty", "Holds", "Invalid", "KripkeModel", "Logic",
    "Proof", "ResourceLimitExceeded", "SCHEMAS", "Schema", "Signature",
    "TableauResult", "Valid", "check_faithfulness", "check_proof", "classify",
    "classify_corpus", "corpus", "correspondence_check", "cross_check",
    "decide", "desugar", "dump_model", "eval_deep", "export_dot",
    "find_countermodel", "has_property", "load_model", "loeb_suite", "parse",
    "parse_proof_script", "parse_schema", "pretty", "print_core",
    "serialize_proof", "translate_max", "translate_min", "valid_in_model",
]
