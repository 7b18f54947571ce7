"""Exact octonion / split-octonion / 8x8-matrix machinery, with a
verifier that diffs every derivation against a bundled set of verbatim
transcription fixtures."""

from .claims import (ClaimReport, ClaimResult, TOOLKIT_VERSION,
                     render_markdown, run_all, to_json)
from .exact import (CDyadic, CRational, Dyadic, FormParseError,
                    ScalarParseError, parse_cdyadic, parse_dyadic)
from .fixtures import FixtureError, FixtureStore, load_fixtures
from .matrices import (BetaSet, SignedTable, SquareMatrix, TableDiff,
                       anticommutator_audit, audit_E_alternates, beta_set,
                       build_E, compare_tables, gram, signed_table)
from .octonion import Octonion, build_split_basis, verify_split_relations
from .rotations import (DegenerateBasis, NonFiniteInput, SingularRotation,
                        StructureMismatch, ToleranceNotMet, assemble_X,
                        block_decompose, duplicate_rotation_scan,
                        extract_components, invert_exact, matrix_exp,
                        plane_product, rotate_exact, rotation_component_map,
                        spinor_transform, standard_spinor, substitute_matrix)
from .splitrep import audit_Y_blocks, split_transform
from .symbolic import LinearForm, parse_linear_form, render_linear_form

__version__ = TOOLKIT_VERSION
