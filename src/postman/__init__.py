"""Chinese postman toolkit.

Exact route-inspection solving, a penalized binary-quadratic encoding of the
odd-node pairing problem, classical samplers with exact energy bookkeeping,
a Chimera embedding pipeline with chain decoding and gauges, defect-probe
analytics, and a CLI tying the pieces together.
"""

import os

# OpenBLAS, the BLAS of numpy's wheels, starts a thread per core when numpy
# loads unless told a count. Those threads buy this package nothing measurable,
# and forked workers beside them (`samplers._fan_out`) are slow and unsafe, so
# keep BLAS to one thread unless the caller chose otherwise. This must precede
# the first numpy import to take effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import PostmanError
from .graphs import EnsembleSpec, Graph, MultiGraph, odd_nodes, is_connected, is_eulerian
from .exact import CppSolution, Matching, OddPairDistances, cpp_length, m_min, solve
from .qubo import IsingModel, QuboModel, build_qubo, decode, is_legal, penalties, to_ising
from .samplers import (
    SampleRecord,
    SampleSet,
    Schedule,
    brute_force,
    simulated_annealing,
    tabu_search,
)
from .chimera import (
    ChimeraTopology,
    DecodePolicy,
    Embedding,
    autoscale,
    chimera_graph,
    clique_embedding,
    decode_chains,
    embed_ising,
    spin_reversal,
    validate_embedding,
)
from .metrics import bootstrap, jf_sweep, p_gs, t_99, tts_sa
from .defects import DefectScan, defect_map, mmin_vs_cmax

__version__ = "0.1.0"
