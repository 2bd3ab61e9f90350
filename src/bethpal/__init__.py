"""Model checking and proof checking for constructive epistemic logic with
public announcements, over finite Beth models."""

from .beth import (
    BethModel, PointedBeth, avoiding_path, equivalent_up_to_depth, forces_prop,
    is_bar, maximal_paths, up_set, validate_beth,
)
from .dynamic import (
    BethKripkeModel, EvalResult, announce, check_s5, forces, restrict_world,
    satisfies,
)
from .formula import (
    And, Announce, Atom, Bot, Diamond, Formula, Imp, Know, Neg, Or, Top,
    BOT, TOP, classify, depth, parse_formula, print_formula, substitute,
)
from .proofkit import SCHEMAS, check_proof, match_schema, parse_proof
from .modeldoc import model_digest, parse_model_document, serialize_model

__version__ = "0.1.0"
