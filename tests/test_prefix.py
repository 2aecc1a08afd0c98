"""The prefix property: the first E epochs of a run are bit for bit an
E-epoch run, for a run alone, for each run of a stack and for the border
trainer, so a record trained for 2E epochs can be read at every budget
up to 2E."""

from bmpnet.border import train_eps
from bmpnet.training import TrainConfig, train, train_stack
from perrun import bits


def tiny_config(epochs, **over):
    base = dict(n=2, r=7, epochs=epochs, batch_size=32, lr=1e-2,
                train_size=128, val_size=64, seed=0)
    base.update(over)
    return TrainConfig(**base)


def assert_prefix(short, long, keys=("train_losses", "val_losses")):
    """Each list of ``short`` equals the first entries of ``long``'s."""
    epochs = short.config.epochs
    assert long.config.epochs == 2 * epochs
    for key in keys:
        got, full = getattr(short, key), getattr(long, key)
        assert len(got) == epochs and len(full) == 2 * epochs
        assert bits(got) == bits(full[:epochs]), key


def test_train_at_e_is_the_first_e_epochs_of_2e():
    assert_prefix(train(tiny_config(3)), train(tiny_config(6)))


def test_each_run_of_a_stack_at_e_is_its_first_e_epochs_of_2e():
    short, long = (train_stack([tiny_config(epochs, seed=seed)
                                for seed in (0, 1, 2)])
                   for epochs in (3, 6))
    for rec_short, rec_long in zip(short, long):
        assert_prefix(rec_short, rec_long)


def test_train_eps_at_10_is_the_first_10_epochs_of_20():
    short, long = (train_eps(tiny_config(epochs, lr=1e-3, seed=3), d_max=2,
                             f_min=0) for epochs in (10, 20))
    assert_prefix(short, long, ("train_losses", "val_losses",
                                "probe_losses", "epsilon_trajectory"))
