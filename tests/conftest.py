import pytest

from meadowacp import default_context, terms


SAMPLE_SPEC = """
act a, b, c;
comm a | b = c;
meadow F 3;
set H = {a, b};
proc P = a . b + delta;
"""


@pytest.fixture
def ctx():
    return default_context()


@pytest.fixture
def sample_spec_text():
    return SAMPLE_SPEC


@pytest.fixture
def probe_walks(monkeypatch):
    """Call it with a function ``record``: from then on ``record(node)`` sees
    each node that a walk of ``meadowacp.terms`` dispatches on, by ``type``
    or by ``isinstance``, so a node that a walk skips as marked is not seen.
    Record ``id(node)``: a failed comparison then prints numbers, not the
    text of a term that may unfold to 2**40 nodes."""

    def probe(record):
        monkeypatch.setattr(terms, "type", lambda obj: record(obj) or type(obj), raising=False)
        monkeypatch.setattr(
            terms, "isinstance", lambda obj, cls: record(obj) or isinstance(obj, cls),
            raising=False,
        )

    return probe


@pytest.fixture
def sample_spec_path(tmp_path):
    path = tmp_path / "sample.acpm"
    path.write_text(SAMPLE_SPEC)
    return str(path)
