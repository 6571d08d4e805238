"""The public surface: what `import swiptrelay` exports."""

import swiptrelay
from swiptrelay import engine


def test_the_public_names_are_sorted_unique_and_resolve():
    names = swiptrelay.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(swiptrelay, name), name
    namespace = {}
    exec("from swiptrelay import *", namespace)
    assert set(names) <= set(namespace)
    assert swiptrelay.mrs_final_select is engine.mrs_final_select
    assert not {"srs_select", "mrs_preselect"} & set(dir(swiptrelay))
