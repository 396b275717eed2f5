package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Checkpoint format: a little-endian binary stream of
//
//	magic "DLCK" | version u32 | nparams u32
//	per param: nameLen u32 | name | len u32 | float32 values
//	nbn u32 | per BN: nameLen u32 | name | c u32 | mean f64[c] | var f64[c]
//
// Only parameter values and BatchNorm running statistics are stored; the
// architecture is reconstructed by the caller (the usual PyTorch-style
// state-dict contract).

const (
	checkpointMagic   = "DLCK"
	checkpointVersion = 1
)

// SaveCheckpoint writes the model's learnable state to w.
func SaveCheckpoint(m *Model, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	params := m.Params()
	if err := writeU32(bw, checkpointVersion); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(p.W.Len())); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	bns := m.BatchNorms()
	if err := writeU32(bw, uint32(len(bns))); err != nil {
		return err
	}
	for _, bn := range bns {
		if err := writeString(bw, bn.LayerName); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(bn.C)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, bn.RunningMean); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, bn.RunningVar); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadCheckpoint restores state saved by SaveCheckpoint into a model with
// the same architecture. Parameter names and sizes must match exactly.
func LoadCheckpoint(m *Model, r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("nn: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	version, err := readU32(br)
	if err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	nparams, err := readU32(br)
	if err != nil {
		return err
	}
	params := m.Params()
	if int(nparams) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", nparams, len(params))
	}
	for _, p := range params {
		name, err := readString(br)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: checkpoint param %q does not match model param %q", name, p.Name)
		}
		n, err := readU32(br)
		if err != nil {
			return err
		}
		if int(n) != p.W.Len() {
			return fmt.Errorf("nn: param %q has %d values in checkpoint, %d in model", name, n, p.W.Len())
		}
		if err := binary.Read(br, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	nbn, err := readU32(br)
	if err != nil {
		return err
	}
	bns := m.BatchNorms()
	if int(nbn) != len(bns) {
		return fmt.Errorf("nn: checkpoint has %d batch norms, model has %d", nbn, len(bns))
	}
	for _, bn := range bns {
		name, err := readString(br)
		if err != nil {
			return err
		}
		if name != bn.LayerName {
			return fmt.Errorf("nn: checkpoint BN %q does not match model BN %q", name, bn.LayerName)
		}
		c, err := readU32(br)
		if err != nil {
			return err
		}
		if int(c) != bn.C {
			return fmt.Errorf("nn: BN %q has %d channels in checkpoint, %d in model", name, c, bn.C)
		}
		if err := binary.Read(br, binary.LittleEndian, bn.RunningMean); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, bn.RunningVar); err != nil {
			return err
		}
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error {
	return binary.Write(w, binary.LittleEndian, v)
}

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("nn: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
