import cloakopt


def test_every_exported_name_imports():
    """``from cloakopt import *`` binds every name of ``__all__``, each once,
    so a deleted function cannot stay exported."""
    namespace = {}
    exec("from cloakopt import *", namespace)
    assert sorted(set(cloakopt.__all__)) == sorted(cloakopt.__all__)
    assert [name for name in cloakopt.__all__ if name not in namespace] == []
