"""The benchmark's workloads: synthetic data sizes and `fedte run` flags.

Every workload passes fedte the same run seed (`--seed 1`), so client
selection, shard sizes and batch order, and with them the work done in each
round, are the same for every workload seed. The workload seed only changes
the pixel values of the generated files (see synth.py). Shards are drawn with
Dirichlet concentration 100 (near-IID) rather than the paper's 1: with two
clients per round and five to ten rounds per invocation, less even shards
make round times and the final accuracy swing with the selected pair and the
seed. Each workload's `min_rounds` is reached within a run even when the
host runs 60% slower than usual, so a slow host does not lengthen the run.
"""

from dataclasses import dataclass, replace

# paper settings shared by every workload: E=2, B=50, lr=0.005 decayed by 0.99
# per round, K=10 clients with C=0.2 of them selected per round
EPOCHS = 2
SHARED_FLAGS = (
    "--epochs", str(EPOCHS), "--batch", "50", "--lr", "0.005",
    "--lr-decay", "0.99", "--clients", "10", "--ratio", "0.2", "--seed", "1",
)
TAIL_BEYOND = 10  # samples the tail percentile leaves above it


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str  # fedte --dataset
    shape: tuple  # (channels, height, width) of the generated images
    cell: int  # side of the blocks the class patterns are made of
    n_train: int  # examples in the generated train files
    n_test: int
    flags: tuple  # fedte run flags beyond SHARED_FLAGS
    rounds: int  # rounds per `fedte run` invocation
    min_rounds: int  # round samples an untraced run collects at least
    accuracy_floor: float  # chance is 0.1; the data caps accuracy near 0.8
    phase: str  # the round phase the workload is built to spend >= 50% in

    @property
    def tail_percentile(self):
        """Highest percentile with TAIL_BEYOND samples beyond it at min_rounds."""
        return 100.0 * (1.0 - TAIL_BEYOND / self.min_rounds)

    def argv(self, data_dir, out_dir):
        return [
            "run", "--dataset", self.dataset, "--data-dir", data_dir,
            "--out-dir", out_dir, *SHARED_FLAGS, *self.flags,
            "--rounds", str(self.rounds),
        ]

    def quick(self):
        """Same flags, three rounds and a small test set: exercises every
        check and metric in seconds, measures nothing. Three rounds only
        need to beat chance."""
        return replace(self, n_test=min(self.n_test, 100), rounds=3,
                       min_rounds=1, accuracy_floor=0.15)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mnist-fedprox-te",
            why=("Local SGD (nn.loss_and_grad at B=50) takes most of each round, "
                 "Fisher never runs, the run ends in PCA: shows conv-backward and "
                 "GEMM changes, predicts none from batched Fisher"),
            dataset="mnist", shape=(1, 28, 28), cell=4, n_train=10000, n_test=500,
            flags=("--variant", "fedprox-te", "--alpha", "1", "--beta", "0.2",
                   "--gamma", "100", "--limit-train", "1000", "--save-trajectory"),
            rounds=10, min_rounds=60, accuracy_floor=0.5, phase="local_train",
        ),
        Workload(
            name="fashion-fedcl-te",
            why=("256 single-example Fisher passes take most of each round: "
                 "shows penalties.fisher_diag and B=1 nn changes, and a B=50 "
                 "speedup that slows B=1"),
            dataset="fashion", shape=(1, 28, 28), cell=4, n_train=10000, n_test=600,
            # proxy = 0.32 * 800 = 256 examples, all used for the Fisher
            flags=("--variant", "fedcl-te", "--alpha", "0.1", "--beta", "0.6",
                   "--gamma", "100", "--limit-train", "800",
                   "--proxy-fraction", "0.32", "--fisher-samples", "256"),
            rounds=5, min_rounds=30, accuracy_floor=0.3, phase="fisher",
        ),
    )
}
