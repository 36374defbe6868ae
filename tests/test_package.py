import types

import otoclab
from otoclab import classical, coarse_graining, maps, otoc, phase_space, resonances


def test_public_namespace_is_the_union_of_the_module_all_lists():
    """Every public library name is importable from the package, and nothing else is."""
    public = {name for name, value in vars(otoclab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = (phase_space, maps, classical, otoc, coarse_graining, resonances)
    assert public == {name for module in modules for name in module.__all__}
