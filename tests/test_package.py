import crlab


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from crlab import *", namespace)
    assert set(crlab.__all__) <= set(namespace)
