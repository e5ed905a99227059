import quakeval


def test_every_public_name_resolves():
    assert len(set(quakeval.__all__)) == len(quakeval.__all__)
    missing = [name for name in quakeval.__all__ if not hasattr(quakeval, name)]
    assert missing == []
