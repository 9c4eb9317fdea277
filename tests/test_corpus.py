import json

import corpus


def test_data_files_match_the_corpus(tmp_path):
    table = json.loads(corpus.TABLE.read_text())
    lines = corpus.moved(table["runs"], corpus.run_all(tmp_path))
    env = {key: table[key] for key in corpus.environment()}
    note = "" if env == corpus.environment() else f"\n(table made on {env}, this is {corpus.environment()})"
    assert not lines, "data files differ from tests/corpus_sha256.json:\n" + "\n".join(lines) + note
