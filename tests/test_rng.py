import inspect

from lambda_asg import limits, rng


def test_stream_tags_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)


def test_sde_consumers_default_to_different_streams():
    def default_key(fn):
        return inspect.signature(fn).parameters["key"].default

    assert default_key(limits.sde_absorption) != default_key(limits.sde_final_values)
