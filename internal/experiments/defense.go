package experiments

import (
	"fmt"
	"strings"

	"repro/internal/controller"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/rowhammer"
)

// DefenseRow is one mechanism's outcome in the single-sided campaign
// comparison: whether the victim bit flipped and what the defense spent.
type DefenseRow struct {
	Defense      string
	Flipped      bool
	Mitigations  int64
	ExtraLatency dram.Picoseconds
	Denied       int64
}

// DefenseNames lists the compared baseline mechanisms in report order;
// DefenseGridNames appends the lock-table row ("DRAM-Locker").
func DefenseNames() []string {
	return []string{
		"None", "PARA", "CounterPerRow", "Graphene", "Hydra",
		"CounterTree", "TWiCE", "RRS", "SHADOW",
	}
}

// DefenseGridNames lists every row of the comparison — the baselines plus
// the DRAM-Locker controller — in report order. This is the shard axis of
// the "defense" grid job.
func DefenseGridNames() []string {
	return append(DefenseNames(), "DRAM-Locker")
}

// DefenseRowFor runs the single-sided RowHammer campaign — 10*TRH
// activations on one aggressor at the preset's device threshold —
// against one mechanism on a fresh device: one shard of the defense
// grid. Rows are independent, so any subset may run concurrently; the
// grid assembles them in DefenseGridNames order.
func DefenseRowFor(p Preset, name string) (DefenseRow, error) {
	trh := p.TRH
	activations := 10 * trh
	if name == "DRAM-Locker" {
		flipped, denied, lat, err := runDefenseLocker(trh, activations)
		if err != nil {
			return DefenseRow{}, fmt.Errorf("experiments: defense DRAM-Locker: %w", err)
		}
		return DefenseRow{
			Defense: name, Flipped: flipped,
			ExtraLatency: lat, Denied: denied,
		}, nil
	}
	flipped, st, err := runDefenseBaseline(name, trh, activations)
	if err != nil {
		return DefenseRow{}, fmt.Errorf("experiments: defense %s: %w", name, err)
	}
	return DefenseRow{
		Defense: name, Flipped: flipped,
		Mitigations: st.Mitigations, ExtraLatency: st.ExtraLatency,
		Denied: st.Denials,
	}, nil
}

// defenseRig builds a fresh device + fault engine with a registered
// victim bit next to the aggressor: the rig of every defense campaign
// and of Fig. 1(b)'s threshold check.
func defenseRig(trh int) (*dram.Device, *rowhammer.Engine, dram.RowAddr, dram.RowAddr, error) {
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		return nil, nil, dram.RowAddr{}, dram.RowAddr{}, err
	}
	eng, err := rowhammer.New(dev, trh)
	if err != nil {
		return nil, nil, dram.RowAddr{}, dram.RowAddr{}, err
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	if err := eng.RegisterTarget(victim, 0); err != nil {
		return nil, nil, dram.RowAddr{}, dram.RowAddr{}, err
	}
	return dev, eng, agg, victim, nil
}

// buildDefense instantiates a baseline mechanism at threshold trh.
func buildDefense(name string, dev *dram.Device, eng *rowhammer.Engine, trh int) (defense.Defense, error) {
	geom := dev.Geometry()
	switch name {
	case "None":
		return defense.NewNone(), nil
	case "PARA":
		return defense.NewPARA(eng), nil
	case "CounterPerRow":
		return defense.NewCounterPerRow(eng, geom, trh/2)
	case "Graphene":
		return defense.NewGraphene(eng, geom, trh)
	case "Hydra":
		return defense.NewHydra(eng, geom, trh/2)
	case "CounterTree":
		return defense.NewCounterTree(eng, geom, trh/2)
	case "TWiCE":
		return defense.NewTWiCE(eng, geom, trh/2)
	case "RRS":
		return defense.NewRowSwap(eng, geom, trh/2)
	case "SHADOW":
		return defense.NewShadow(eng, geom, trh)
	default:
		return nil, fmt.Errorf("unknown defense %q", name)
	}
}

// runDefenseBaseline drives the campaign through one baseline mechanism.
func runDefenseBaseline(name string, trh, activations int) (bool, defense.Stats, error) {
	dev, eng, agg, victim, err := defenseRig(trh)
	if err != nil {
		return false, defense.Stats{}, err
	}
	d, err := buildDefense(name, dev, eng, trh)
	if err != nil {
		return false, defense.Stats{}, err
	}
	for i := 0; i < activations; i++ {
		dec := d.OnActivate(agg, false)
		if !dec.Allow {
			continue
		}
		if _, err := dev.Activate(agg); err != nil {
			return false, defense.Stats{}, err
		}
		if _, err := dev.Precharge(agg.Bank); err != nil {
			return false, defense.Stats{}, err
		}
	}
	flipped, err := dev.PeekBit(victim, 0)
	return flipped, d.Stats(), err
}

// runDefenseLocker drives the campaign through the real DRAM-Locker
// controller with the aggressor's neighborhood locked.
func runDefenseLocker(trh, activations int) (flipped bool, denied int64, lat dram.Picoseconds, err error) {
	dev, _, agg, victim, err := defenseRig(trh)
	if err != nil {
		return false, 0, 0, err
	}
	ctl, err := controller.New(dev)
	if err != nil {
		return false, 0, 0, err
	}
	if err := ctl.LockRow(agg); err != nil {
		return false, 0, 0, err
	}
	for i := 0; i < activations; i++ {
		if _, _, err := ctl.HammerAttempt(agg); err != nil {
			return false, 0, 0, err
		}
	}
	flipped, err = dev.PeekBit(victim, 0)
	st := ctl.Stats()
	return flipped, st.Denied, st.LookupLatency, err
}

// FormatDefenseComparison renders the comparison table.
func FormatDefenseComparison(p Preset, rows []DefenseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "single-sided campaign: %d activations on one aggressor, device T_RH=%d\n\n",
		10*p.TRH, p.TRH)
	fmt.Fprintf(&b, "%-16s %8s %12s %14s %10s\n", "defense", "flipped", "mitigations", "extra latency", "denied")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8v %12d %14v %10d\n",
			r.Defense, r.Flipped, r.Mitigations, r.ExtraLatency, r.Denied)
	}
	b.WriteString("\nnote: counter-based mechanisms mitigate reactively (work scales with the\n")
	b.WriteString("attack); the lock-table denies proactively at pure lookup cost.\n")
	return b.String()
}
