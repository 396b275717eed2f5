package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/quant"
)

// Table2Row is one row of the software-defense comparison (Table II):
// clean accuracy, post-attack accuracy, and the bit-flip count the
// attacker needed (or spent) to reach the collapse threshold.
type Table2Row struct {
	Model         string
	CleanAcc      float64
	PostAttackAcc float64
	BitFlips      int
	// Note flags emulation details.
	Note string
}

// Table2Config parameterises the comparison.
type Table2Config struct {
	// CollapseAcc is the accuracy at which the model counts as crushed
	// (paper: ~10-11% on CIFAR-10 = random guessing).
	CollapseAcc float64
	// MaxFlips bounds the attacker's budget per row.
	MaxFlips int
	// ClusteringLambda is the piece-wise clustering penalty strength.
	ClusteringLambda float64
}

// DefaultTable2Config returns collapse at random-guess accuracy with a
// generous flip budget.
func DefaultTable2Config(p Preset) Table2Config {
	return Table2Config{
		CollapseAcc:      1.5 / 10.0, // slightly above random guessing for 10 classes
		MaxFlips:         p.AttackIters,
		ClusteringLambda: 3e-3,
	}
}

// reconstructionExecutor emulates the weight-reconstruction defense (Li et
// al. DAC'20): weights are stored in a redundant transformed form, so
// after each write-back the deployment reconstructs them and large
// deviations — the catastrophic MSB jumps BFA relies on — are pulled back
// toward the original value, leaving only a small residual error. Each
// flip therefore lands but does a fraction of its intended damage, forcing
// the attacker to spend far more flips (the paper reports 79 vs the
// baseline's 20).
type reconstructionExecutor struct {
	qm *quant.Model
	// repairThreshold is the quantized-value jump that triggers repair.
	repairThreshold int
	// residual is the corruption left behind after a repair.
	residual int8
}

// TryFlip implements attack.FlipExecutor.
func (r *reconstructionExecutor) TryFlip(globalW, k int) (attack.FlipOutcome, error) {
	pi, li := r.qm.Locate(globalW)
	qp := r.qm.Params[pi]
	before := qp.Get(li)
	qp.Flip(li, k)
	after := qp.Get(li)
	delta := int(after) - int(before)
	if delta >= r.repairThreshold || delta <= -r.repairThreshold {
		// Reconstruction detects the outlier and repairs toward the
		// original, leaving a bounded residual.
		repaired := before
		if delta > 0 {
			repaired += r.residual
		} else {
			repaired -= r.residual
		}
		qp.Q[li] = repaired
		qp.Param.W.Data[li] = quant.Dequantize(repaired, qp.Scale)
	}
	return attack.FlipOutcome{Succeeded: true}, nil
}

// Table2Model is one row of the Table II grid: a stable shard id, the
// row's label and note, the victim it defends and the attack run on it.
// The victim is data, so the row's training is shared through the
// registration's memo with every job that names the same spec, and the
// spec sets the shard's dispatch cost. Each row attacks a private copy
// of its victim, so rows are independent and any subset may run
// concurrently.
type Table2Model struct {
	ID     string
	Label  string
	Note   string
	Victim VictimSpec
	// Attack attacks the trained victim and reports the post-attack
	// accuracy and the flips spent, plus a note when the row computes
	// its own.
	Attack func(ctx context.Context, p Preset, cfg Table2Config, v *Victim) (Table2Row, error)
}

// Table2Models lists the compared defenses in paper order — the shard
// axis of the table2 grid job. Every row attacks ResNet-20 on
// CIFAR-10-like data: the training-based defenses under direct flip
// execution (they do not change the memory system), weight
// reconstruction under its repairing executor, and DRAM-Locker on the
// full DRAM stack with an ideal (error-free) SWAP, the paper's Table II
// setting.
func Table2Models(cfg Table2Config) []Table2Model {
	base := standardVictim(ArchResNet20, 10)
	clustered, binary, wide, rabnn := base, base, base, base
	clustered.ClusteringLambda = cfg.ClusteringLambda // piece-wise clustering (He et al. CVPR'20)
	binary.Bits = 1                                   // binary weights (He et al. CVPR'20)
	wide.Width = 4                                    // model capacity x16 (Rakin et al.): 16x parameters = 4x width
	rabnn.Bits, rabnn.Width = 1, 2                    // RA-BNN (Rakin et al.): binary weights at doubled width
	direct := attackToCollapse(func(v *Victim) attack.FlipExecutor { return &attack.DirectExecutor{QM: v.QM} })
	// Weight reconstruction (Li et al. DAC'20): redundancy + repair.
	repaired := attackToCollapse(func(v *Victim) attack.FlipExecutor {
		return &reconstructionExecutor{qm: v.QM, repairThreshold: 64, residual: 8}
	})
	return []Table2Model{
		{"baseline", "Baseline ResNet-20", "", base, direct},
		{"clustering", "Piece-wise Clustering", "clustering regularizer during training", clustered, direct},
		{"binary", "Binary weight", "1-bit sign weights", binary, direct},
		{"capacity", "Model Capacity x16", "4x channel width", wide, direct},
		{"reconstruction", "Weight Reconstruction", "emulated as outlier repair with residual error", base, repaired},
		{"rabnn", "RA-BNN", "binary weights, 2x width", rabnn, direct},
		{"dramlocker", "DRAM-Locker", "", base, table2DRAMLocker},
	}
}

// Run takes the row's victim — from the memo that ctx carries, or
// freshly trained — attacks it and fills in the row.
func (m Table2Model) Run(ctx context.Context, p Preset, cfg Table2Config) (Table2Row, error) {
	v, err := victimFor(ctx, p, m.Victim)
	if err != nil {
		return Table2Row{}, err
	}
	row, err := m.Attack(ctx, p, cfg, v)
	if err != nil {
		return Table2Row{}, err
	}
	row.Model, row.CleanAcc = m.Label, v.CleanAcc
	if row.Note == "" {
		row.Note = m.Note
	}
	return row, nil
}

// attackToCollapse returns the attack that drives the BFA through the
// executor newExec builds until the model collapses or the flip budget
// runs out.
func attackToCollapse(newExec func(*Victim) attack.FlipExecutor) func(context.Context, Preset, Table2Config, *Victim) (Table2Row, error) {
	return func(ctx context.Context, p Preset, cfg Table2Config, v *Victim) (Table2Row, error) {
		bcfg := attack.DefaultBFAConfig()
		bcfg.CandidatesPerIter = p.Candidates
		bcfg.Stop = ctx.Err
		flips, post, err := attack.BFAUntilCollapse(v.QM, v.AttackBatch, v.Eval, newExec(v), bcfg, cfg.CollapseAcc, cfg.MaxFlips)
		return Table2Row{PostAttackAcc: post, BitFlips: flips}, err
	}
}

// table2DRAMLocker attacks the full stack with an ideal SWAP (no
// process-variation errors) for the whole flip budget.
func table2DRAMLocker(ctx context.Context, p Preset, cfg Table2Config, v *Victim) (Table2Row, error) {
	sys, err := BuildSystem(p, v, true, 0)
	if err != nil {
		return Table2Row{}, err
	}
	res, err := attack.BFA(v.QM, v.AttackBatch, v.Eval, sys.Exec, attack.BFAConfig{
		Iterations:        cfg.MaxFlips,
		CandidatesPerIter: p.Candidates,
		Stop:              ctx.Err,
	})
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		PostAttackAcc: res.FinalAccuracy(), BitFlips: res.TotalDenied + res.TotalFlips,
		Note: fmt.Sprintf("all %d attempts denied, %d landed", res.TotalDenied, res.TotalFlips),
	}, nil
}
