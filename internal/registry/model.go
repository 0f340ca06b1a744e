package registry

import (
	"bytes"
	"fmt"
	"math"

	"shmd/internal/hmd"
	"shmd/internal/trace"
)

// Model is a decoded, validated detector model. Every registered
// manifest resolves to one; the serve pool builds sessions off
// Detector() exactly as it does off the compiled-in seed model, so a
// registry-loaded copy of a model is bit-identical to the compiled-in
// path by construction (same *hmd.HMD, same forward pass).
type Model interface {
	// Type names the codec that produced the model.
	Type() string
	// Fingerprint is a short stable content hash of the model.
	Fingerprint() string
	// Detector returns the runnable detector: per-program
	// (DetectProgram/ScoreWindows) and batched (DetectTracesUnit /
	// EvaluateSet) detection both run its one batched forward pass.
	Detector() *hmd.HMD
}

// Codec (de)serializes one model type's params blob. Codecs are the
// extension point for heterogeneous detector types behind the one
// registry format.
type Codec interface {
	// Type is the manifest model-type string this codec owns.
	Type() string
	// Decode builds a model from a manifest's params.
	Decode(params []byte) (Model, error)
	// Encode serializes a detector into params this codec can
	// decode back.
	Encode(det *hmd.HMD) ([]byte, error)
}

// FannType is the built-in codec for the seed FANN MLP detector: the
// params blob is the canonical hmd bundle (feature set, period,
// threshold, network weights).
const FannType = "fann-mlp"

// codecs is the codec table; fixed at init (no registration API yet —
// new detector types land as new built-in codecs).
var codecs = map[string]Codec{
	FannType: fannCodec{},
}

// CodecFor resolves the codec for a model type.
func CodecFor(modelType string) (Codec, error) {
	c, ok := codecs[modelType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, modelType)
	}
	return c, nil
}

type fannCodec struct{}

func (fannCodec) Type() string { return FannType }

func (fannCodec) Decode(params []byte) (Model, error) {
	det, err := hmd.LoadBundle(bytes.NewReader(params))
	if err != nil {
		return nil, corrupt("fann-mlp params: %v", err)
	}
	fp, err := det.Fingerprint()
	if err != nil {
		return nil, corrupt("fann-mlp fingerprint: %v", err)
	}
	return &fannModel{det: det, fp: fp}, nil
}

func (fannCodec) Encode(det *hmd.HMD) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := det.SaveBundle(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type fannModel struct {
	det *hmd.HMD
	fp  string
}

func (m *fannModel) Type() string        { return FannType }
func (m *fannModel) Fingerprint() string { return m.fp }
func (m *fannModel) Detector() *hmd.HMD  { return m.det }

// GoldenSpec names a deterministic synthetic program to pin a golden
// verdict on.
type GoldenSpec struct {
	Class      trace.Class
	Index      int
	Seed       uint64
	Windows    int
	WindowSize int
}

// DefaultGoldenSpecs pins one benign and one malware program from the
// quick corpus — enough to catch a wrong-model swap (weights,
// threshold, or feature binding) without bloating every manifest.
func DefaultGoldenSpecs() []GoldenSpec {
	return []GoldenSpec{
		{Class: trace.Benign, Index: 0, Seed: 1, Windows: 4, WindowSize: 256},
		{Class: trace.Trojan, Index: 0, Seed: 1, Windows: 4, WindowSize: 256},
	}
}

// pinGolden runs the exact nominal-voltage pass for each spec and
// records the verdict and bit-exact score.
func pinGolden(det *hmd.HMD, specs []GoldenSpec) ([]GoldenVerdict, error) {
	golden := make([]GoldenVerdict, 0, len(specs))
	for _, sp := range specs {
		windows, err := goldenWindows(sp)
		if err != nil {
			return nil, err
		}
		dec := det.DetectProgram(windows)
		golden = append(golden, GoldenVerdict{
			Class:      sp.Class,
			Index:      sp.Index,
			Seed:       sp.Seed,
			Windows:    sp.Windows,
			WindowSize: sp.WindowSize,
			Malware:    dec.Malware,
			Score:      dec.Score,
		})
	}
	return golden, nil
}

// verifyGolden replays every pinned verdict against the decoded model.
func verifyGolden(det *hmd.HMD, golden []GoldenVerdict) error {
	for i, g := range golden {
		windows, err := goldenWindows(GoldenSpec{
			Class: g.Class, Index: g.Index, Seed: g.Seed,
			Windows: g.Windows, WindowSize: g.WindowSize,
		})
		if err != nil {
			return err
		}
		dec := det.DetectProgram(windows)
		if dec.Malware != g.Malware || math.Float64bits(dec.Score) != math.Float64bits(g.Score) {
			return fmt.Errorf("%w: golden %d (%s/%d): got malware=%v score=%x, pinned malware=%v score=%x",
				ErrGoldenMismatch, i, g.Class, g.Index,
				dec.Malware, math.Float64bits(dec.Score),
				g.Malware, math.Float64bits(g.Score))
		}
	}
	return nil
}

func goldenWindows(sp GoldenSpec) ([]trace.WindowCounts, error) {
	prog, err := trace.NewProgram(sp.Class, sp.Index, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("registry: golden program: %w", err)
	}
	windows, err := prog.Trace(sp.Windows, sp.WindowSize)
	if err != nil {
		return nil, fmt.Errorf("registry: golden trace: %w", err)
	}
	return windows, nil
}

// NewManifest builds a manifest for a detector: encodes the params
// with the named codec and pins golden verdicts for the given specs
// (DefaultGoldenSpecs if nil).
func NewManifest(version uint32, modelType string, det *hmd.HMD, created uint64, specs []GoldenSpec) (*Manifest, error) {
	if version == 0 {
		return nil, fmt.Errorf("registry: manifest version must be >= 1")
	}
	codec, err := CodecFor(modelType)
	if err != nil {
		return nil, err
	}
	params, err := codec.Encode(det)
	if err != nil {
		return nil, fmt.Errorf("registry: encode params: %w", err)
	}
	if specs == nil {
		specs = DefaultGoldenSpecs()
	}
	golden, err := pinGolden(det, specs)
	if err != nil {
		return nil, err
	}
	return &Manifest{
		Version: version,
		Type:    modelType,
		Created: created,
		Params:  params,
		Golden:  golden,
	}, nil
}
