"""steklab: a numerical laboratory for Steklov eigenvalue problems on
submanifolds of Euclidean space."""

__version__ = "0.1.0"

from .families import FamilyDescriptor, GeometricSummary, generate_mesh, geometric_summary
from .mesh import EmbeddedMesh, simplex_volume
from .spectral import SpectralProblem, SpectralResult, solve_steklov

__all__ = [
    "__version__",
    "EmbeddedMesh",
    "FamilyDescriptor",
    "GeometricSummary",
    "SpectralProblem",
    "SpectralResult",
    "generate_mesh",
    "geometric_summary",
    "simplex_volume",
    "solve_steklov",
]
