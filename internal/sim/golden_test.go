package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/workload"
)

// The golden outputs are the science gate at test scale: SHA-256 digests
// of canonical results for every scheme × scenario on gups (the full
// 8 GiB install) and omnetpp (fine-grained), plus cells pinning the
// detailed walk model, multi-region anchors, a fixed distance, epoch
// re-selection, churn and the page-table layout itself. A change meant to
// alter outputs re-records goldenDigests from the failure message and says
// why in CHANGES.md.

// goldenAccesses keeps every cell to a few milliseconds of translation;
// footprints stay at the workload defaults, so set-up runs at full scale.
const goldenAccesses = 2000

// goldenSeed is the seed every golden cell runs at.
const goldenSeed = 42

var goldenWorkloads = []string{"gups", "omnetpp"}

type goldenCell struct {
	name string
	run  func() (any, error)
}

func goldenConfig(s mmu.Scheme, wl string, sc mapping.Scenario) Config {
	spec, err := workload.ByName(wl)
	if err != nil {
		panic(err)
	}
	return Config{Scheme: s, Workload: spec, Scenario: sc, Accesses: goldenAccesses, Seed: goldenSeed}
}

func runCell(cfg Config) func() (any, error) {
	return func() (any, error) { return Run(cfg) }
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	add := func(name string, run func() (any, error)) {
		cells = append(cells, goldenCell{name: name, run: run})
	}
	for _, wl := range goldenWorkloads {
		for _, sc := range mapping.All() {
			for _, s := range mmu.All() {
				add(fmt.Sprintf("run/%s/%v/%v", wl, sc, s), runCell(goldenConfig(s, wl, sc)))
			}
			for _, s := range []mmu.Scheme{mmu.Base, mmu.THP, mmu.Anchor} {
				cfg := goldenConfig(s, wl, sc)
				add(fmt.Sprintf("table/%s/%v/%v", wl, sc, s), func() (any, error) { return tableShape(cfg) })
			}
		}
		for _, sc := range []mapping.Scenario{mapping.Demand, mapping.Medium} {
			cfg := goldenConfig(mmu.Anchor, wl, sc)
			cfg.MultiRegionAnchors = true
			add(fmt.Sprintf("multiregion/%s/%v", wl, sc), runCell(cfg))
		}
	}
	for _, s := range mmu.All() {
		cfg := goldenConfig(s, "gups", mapping.Demand)
		cfg.DetailedWalk = true
		add(fmt.Sprintf("detailedwalk/gups/demand/%v", s), runCell(cfg))
	}
	for _, d := range []uint64{8, 64} {
		cfg := goldenConfig(mmu.Anchor, "gups", mapping.Medium)
		cfg.FixedDistance = d
		add(fmt.Sprintf("fixed/gups/medium/d=%d", d), runCell(cfg))
	}
	epoch := goldenConfig(mmu.Anchor, "omnetpp", mapping.Demand)
	epoch.EpochInstructions = 1000
	add("epochs/omnetpp/demand/anchor", runCell(epoch))
	for _, s := range []mmu.Scheme{mmu.Anchor, mmu.THP} {
		cfg := ChurnConfig{
			Config:                    goldenConfig(s, "gups", mapping.Medium),
			ChurnIntervalInstructions: 500,
			ChurnPages:                256,
		}
		add(fmt.Sprintf("churn/gups/medium/%v", s), func() (any, error) {
			res, stats, err := RunWithChurn(cfg)
			return struct {
				Result Result
				Churn  ChurnStats
			}{res, stats}, err
		})
	}
	return cells
}

// tableShape installs cfg's mapping and reports what the detailed walk
// model and tlbbench see of the table: node and write counts, and the
// entry addresses a walk touches for a seeded sample of footprint pages.
func tableShape(cfg Config) (any, error) {
	cfg = cfg.withDefaults()
	cl, err := mapping.Generate(cfg.Scenario, mapping.Config{
		FootprintPages: cfg.FootprintPages,
		Seed:           cfg.Seed,
		FineGrained:    cfg.Workload.FineGrainedAlloc,
	})
	if err != nil {
		return nil, err
	}
	proc := osmem.NewProcess(cfg.Scheme.Policy())
	if err := proc.InstallChunks(cl, 0); err != nil {
		return nil, err
	}
	pt := proc.PageTable()
	r := rand.New(rand.NewSource(goldenSeed))
	lines := make([][]mem.PhysAddr, 0, 512)
	for i := 0; i < 512; i++ {
		vpn := cl[0].StartVPN + mem.VPN(r.Int63n(int64(cfg.FootprintPages)))
		lines = append(lines, pt.WalkLines(vpn))
	}
	st := pt.Stats()
	return struct {
		Nodes, PTEWrites uint64
		Lines            [][]mem.PhysAddr
	}{st.Nodes, st.PTEWrites, lines}, nil
}

// goldenDigest is the hex SHA-256 of v's JSON encoding: struct fields in
// declaration order and map keys sorted, so equal results hash equally.
func goldenDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func TestGoldenOutputs(t *testing.T) {
	cells := goldenCells()
	got := make([]string, len(cells))
	for i, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			v, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got[i], err = goldenDigest(v); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Cleanup(func() {
		var bad []string
		for i, c := range cells {
			if want, ok := goldenDigests[c.name]; !ok || got[i] != want {
				bad = append(bad, fmt.Sprintf("\t%q: %q,", c.name, got[i]))
			}
		}
		if len(goldenDigests) != len(cells) {
			t.Errorf("%d golden digests recorded for %d cells", len(goldenDigests), len(cells))
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			t.Errorf("%d of %d golden cells differ; their digests now:\n%s", len(bad), len(cells), strings.Join(bad, "\n"))
		}
	})
}

// goldenDigests was recorded before the page-table layout changed.
var goldenDigests = map[string]string{
	"churn/gups/medium/anchor":             "69b6a918cc12a908a32531888c09bd2dca7b0d1e00f3a56785d1e09f82d54d16",
	"churn/gups/medium/thp":                "f227c9cca8ed3ffc46fde10e58b07dfc372511eed1b2a55facb04cabb4e73bcc",
	"detailedwalk/gups/demand/anchor":      "b2623e4ccb5b07bac36b95cce6d9a92db1508719f3cbb66493d7894677016804",
	"detailedwalk/gups/demand/base":        "922a2fbe5e2ec67af7d5209f1ec405069062847053e92a8256780381af8c2f5d",
	"detailedwalk/gups/demand/cluster":     "6a143d722cbd006f16eb743c9c6351819a89c207e7218768ea2ad448f5579a29",
	"detailedwalk/gups/demand/cluster-2mb": "e0b70c32179369fa1b757a63270119b0ad0ef64133d23664f5b1521c2811842e",
	"detailedwalk/gups/demand/colt":        "1c96e7a77af2ee9e64d08ffd385eeb9bbeee5b70e9240b9b68ec5cc14ada772c",
	"detailedwalk/gups/demand/colt-fa":     "6aad7e2ba470b2f5ad3b5b61f8d9405223b76811ae9c4f1ab8c6e8cbb56c4e65",
	"detailedwalk/gups/demand/rmm":         "f96df70818b92ff8212d2d26dfa2e501f59f8047fd5e9d8afe7075d374b3d921",
	"detailedwalk/gups/demand/thp":         "bb6090d3c2b1a59399eea5342e9b8758bd85610fec73de1b99f07d396a7ad42f",
	"epochs/omnetpp/demand/anchor":         "0d8d502932257616fa302b5b3322fa206260bd653b06f3cad1e81c96e3073a5c",
	"fixed/gups/medium/d=64":               "ecc14fc872928450cb124eeb72cd166c1b4e28cadf78162d474b86c52d819aa4",
	"fixed/gups/medium/d=8":                "fe7af0865aab9100293890c98cea6bd205b6c4f754410c166f1caf30766c77ba",
	"multiregion/gups/demand":              "f98097e2be27758bf06aa8723e65cf8f6bb6025481b534243c1f1d85c45c1880",
	"multiregion/gups/medium":              "fc96c41da9db411d5e00abb0cc3cc3b00a54d0693e947cc086deebbbff5785fa",
	"multiregion/omnetpp/demand":           "aef13b6d8d75245da87d7cb7f434a26688ac594e2f9f0e0eca0dfde161abc619",
	"multiregion/omnetpp/medium":           "b076db31ae298eb56ac32572f30261db6c99c263b99495455b62012ff8808bff",
	"run/gups/demand/anchor":               "b2623e4ccb5b07bac36b95cce6d9a92db1508719f3cbb66493d7894677016804",
	"run/gups/demand/base":                 "a72f2eafc4e34a82029372a3d1d2184f99e05c63d2281f24704679f2b41d9fa9",
	"run/gups/demand/cluster":              "1644884c3f27a63712f229d9576c3ef001cdbb7dbb78754bc093324535d02fd5",
	"run/gups/demand/cluster-2mb":          "89e32aa028020a950d9a70e360bc68621572d3b8d1d0cddbef69839d934be8bc",
	"run/gups/demand/colt":                 "2296e1aa6b04b87eff9052e544a4b46b3ad84a6bd9fadd5c83fd4f195ac1e8e3",
	"run/gups/demand/colt-fa":              "6de74ad58234270c9b02bf681c7af9863fc0f7fc4fa72d31db0b843532ce91f8",
	"run/gups/demand/rmm":                  "f96df70818b92ff8212d2d26dfa2e501f59f8047fd5e9d8afe7075d374b3d921",
	"run/gups/demand/thp":                  "48d297e5cc6474530af337ea7ef1062abf935b80832b284629237d3f41c3ef34",
	"run/gups/eager/anchor":                "4438700c2529a2cc4a919cdf130466848311ff5d93865248fef031053a71050b",
	"run/gups/eager/base":                  "a496f785ee45ec417053eedb46c5dd977949994443b45d22d1aee81721635693",
	"run/gups/eager/cluster":               "2e1fe522def41f2ec1b1f50acd1ca46119ac0c1507494b4847d6f6cf9a2adbbc",
	"run/gups/eager/cluster-2mb":           "fe188f66ea3f93c0a3a228dedfee2ec4e77030b7acca9a0762dfe81d38bd85a7",
	"run/gups/eager/colt":                  "6ed9541203568c7bbfcc07acd2f7e7510695a0a72de49812e3f44fd3477f6437",
	"run/gups/eager/colt-fa":               "79290f7a27162b606910d766b1a19d69964b5a14d039e3290be3efa056dbdbdd",
	"run/gups/eager/rmm":                   "0dbbcc520fe316e4249c4ff1eeb706a6d5101402d9e742e3195c8e5b500def06",
	"run/gups/eager/thp":                   "ae8c6eacf1f9f0faa4d44bac9b7419b977af8ee5803800a4a283502af73fe532",
	"run/gups/high/anchor":                 "88c241bcd89babc734e2f7424bcd709b431b85e161935b6a2af14e798cec13fb",
	"run/gups/high/base":                   "fb1c79622d720a94fd48503bde9c906206583248ee36fa7aa4a77ace49c72541",
	"run/gups/high/cluster":                "b49892224d15e9a4a9547d08f5a1cda8114d44ffcec4dd766e397bcba8b54cd8",
	"run/gups/high/cluster-2mb":            "177bc2422064262edae9d7a08ebbd75c08f884b52ab8ffd8fd8991dfa3f62eaa",
	"run/gups/high/colt":                   "afcf38250493bf624a474e91e6361b1d914a7dfe032d371b8764ac3db2b39370",
	"run/gups/high/colt-fa":                "3dd7b8c9c16b753a87e7691d842bb398869a75462014fe42a1c9b142c6108962",
	"run/gups/high/rmm":                    "2c5b4dcbb3dc8e5d64fae6ea05db9161d0ac4f5fb7508ba0690142883a8a3c8a",
	"run/gups/high/thp":                    "5a487eb6c79248c08fde8d5c33339cb6559f620d436342b4ad4c9f62417726bc",
	"run/gups/low/anchor":                  "8f38f2f00120caf169ffc597f46ad23821e4a8923ec7e155e45144a6e665627d",
	"run/gups/low/base":                    "ccfb269ab7bf170d018ae3999f4652e01c528603fe601ffb00f45a80305521ab",
	"run/gups/low/cluster":                 "3547c174f4eec21013155b2881ce61c722d76e30864b7cfb226148d3fdaeddf3",
	"run/gups/low/cluster-2mb":             "572259cbfeed8b63cc1d86e45e07e3097a7eef412cae4dc2604d4159e1d693e4",
	"run/gups/low/colt":                    "7c66d502fa76406684aa1f1027dd12bc242ffd0b4cb61e09504ffbe19d349014",
	"run/gups/low/colt-fa":                 "bd688219efc2c74643089cb6add4915e82c51f13d38162309625db72ee78b636",
	"run/gups/low/rmm":                     "5d6708358e4acf72000bb5863b6c799c09634f7fae98aa124c926811257977ab",
	"run/gups/low/thp":                     "9563b14df21d30493b9972fa14349e885bf0beed9f93bb731bd0266cd25df41a",
	"run/gups/max/anchor":                  "704917fdf4dc79237969e011b50854af8b50d6823baf0952627572a6d4673a6e",
	"run/gups/max/base":                    "a8e4af3c4616c05442db17ee85f75492e6e8657ee77391e79549e37eebb39ac6",
	"run/gups/max/cluster":                 "3a9f8436e84759abe414ad9dafe0e00f3f6ff32b8018e1afe1bb3111863199df",
	"run/gups/max/cluster-2mb":             "717c11eeeaf570a7fbe5cdea21a32e1c0bb51b0ac934ee63a6241a2283313b9b",
	"run/gups/max/colt":                    "cd8a33bcfb2b2b5f5e3f7a9f9a0aa608959fe193666e175987380a3f25b2bf95",
	"run/gups/max/colt-fa":                 "fb79b495038933d637dd53fa40a6b7943067a9b8a150d2f83065c1266d271170",
	"run/gups/max/rmm":                     "35688ea83277b69cd35e239bc0e11f76d58568f1db75d1f1b35be55770ad5505",
	"run/gups/max/thp":                     "7a3f171bd91654f40df1c98f4e257fc24d90bd775f04ec0ac4cf499fea4046da",
	"run/gups/medium/anchor":               "30fe5ba01a3f312d0336b5328dde40088bdab90b41f2de0cabb08baf9cc9e382",
	"run/gups/medium/base":                 "131fa68334fb1fa799a2b3802af3590c0b0564597a281fc95d6fe888fb37510a",
	"run/gups/medium/cluster":              "3b1c2dc2df2ae1b5a240e74432825f2dc2a427d37086b13a40e2d280e78b0eb1",
	"run/gups/medium/cluster-2mb":          "5df13f4072fad41c1eb3bcb1fa2144f4a1226bd557609f7f3298d59908774b91",
	"run/gups/medium/colt":                 "af5d39685b5949f9e31e96e7849805952d36eb9de4c3a1543a09106e40d0079f",
	"run/gups/medium/colt-fa":              "ba5c1d829bc52c30630a6e37958f9ebeb75e27d6c82adda67f8d344817a3a5b8",
	"run/gups/medium/rmm":                  "52741f178915311fb0250d7dc43e0797be3785f75489f620b3854dcd120ce636",
	"run/gups/medium/thp":                  "21e24304c5278135b1ad5d186c4e3be845ee5256f24db5fc4ca73bd280c60548",
	"run/omnetpp/demand/anchor":            "0d8d502932257616fa302b5b3322fa206260bd653b06f3cad1e81c96e3073a5c",
	"run/omnetpp/demand/base":              "15d5b2079274a040b7cf7ab01a3de04bf0b05fe4e93eed90a7f723833b60ab15",
	"run/omnetpp/demand/cluster":           "6318348ccce4769c3fdc4c7bfa14ddd14d7bef2d10dd85a5611181f9ee67eb18",
	"run/omnetpp/demand/cluster-2mb":       "f0d15dd3027f0d3a43829dc4ef57006c7659f37ccc72d6935bff7ff568463766",
	"run/omnetpp/demand/colt":              "4365ad1a21fc25a751a07434ba51f6df16771b503b191bfa2cc0d8ff5042a7fc",
	"run/omnetpp/demand/colt-fa":           "26be85397230cd4bb6faf59e5b96245e46b3ff1c687e321caf8d18f0c7e4c41b",
	"run/omnetpp/demand/rmm":               "a23cd732d3bfda0fffa99a631a1fe0e753f49df86773e4c2c326f41f890b169e",
	"run/omnetpp/demand/thp":               "29fda2a8c101d6253cd2b3560533697c18768892b0aff747d0aea5c68c0a4319",
	"run/omnetpp/eager/anchor":             "92d9a19db785425895d28cc5309bb0032a9bf3327ecf6886af71b98109fcf69f",
	"run/omnetpp/eager/base":               "6ee76a308a0633141aeee12f9813a325cc74f06db633614e48aee084511ad552",
	"run/omnetpp/eager/cluster":            "a23109d6031b945c840c57a4e2e551c3fec5d03a18a66d57538b6b9aea53aa7d",
	"run/omnetpp/eager/cluster-2mb":        "f04512d7bfedcca77262ef002d44c03adbed657981d93b4e20b19db82d34969b",
	"run/omnetpp/eager/colt":               "a68472a96cc6d750d281209452096851acfd1d3c93073c446765d9a37eae790c",
	"run/omnetpp/eager/colt-fa":            "ad76c2e4ba093d9cbf98f5e6d68166ffb52864847e9c685e0f5dadd6f63296d4",
	"run/omnetpp/eager/rmm":                "53503e2f8a05524dc3adadd289e02d6d410ac513fae35fc784acf2f85d351854",
	"run/omnetpp/eager/thp":                "d5612520d6c6843da6fc7fe6676bed2fdf5acf6a5fb7264f431b9cc25eb2f43d",
	"run/omnetpp/high/anchor":              "1fb89f35c29ddfe40153cdef2306d842685510996b104e246e06b3cbf672735b",
	"run/omnetpp/high/base":                "e578e92d4e86d5f702d51367738df64712ea562b340bc01d6527dbbf750ec1b3",
	"run/omnetpp/high/cluster":             "9a615ba1b81f45e85ca7e5e9dcac2900950acece834a36f77299998b53016c7e",
	"run/omnetpp/high/cluster-2mb":         "7f35a7d30c230ebd477adb5ad95f66e33b26e03245fee4d15eb73fed38b8271b",
	"run/omnetpp/high/colt":                "4a97238b8a3f757ef1fe883596924ea53de5c03715a337ebe7659e3de30a44ac",
	"run/omnetpp/high/colt-fa":             "d34ba331f2861fa67f629e4d1c194107ab42170b134007438e3411175ab00931",
	"run/omnetpp/high/rmm":                 "3c57a4c4def7ca5b4cb9aa7ab8db7d591ee64d945ac5ac522bf382f3393fdb05",
	"run/omnetpp/high/thp":                 "867e06dc1a5f7fe9583300251ff74f3c0a58d2ad3908a62fa686f98942684c82",
	"run/omnetpp/low/anchor":               "8ad2378f915126701aca85227b160840ef45c08f7443e97706088e32126fbd63",
	"run/omnetpp/low/base":                 "bfe6c3f2cc38c8a5637633531f04961a817dda9894b32a28e07fd9dad565d59f",
	"run/omnetpp/low/cluster":              "5664c135d77339e527c84890967decb1b5fdb2f901a35c9d8a80239b463fbbda",
	"run/omnetpp/low/cluster-2mb":          "c45b1e8faea22fc72968a6d64934f6be11d32a64bea789d3977ed797e898d345",
	"run/omnetpp/low/colt":                 "a2c28a2ae92a0d48257928c0509726799e3ea1628e4de399610c5139d317c7f8",
	"run/omnetpp/low/colt-fa":              "956939d94f376a5364cd4a48791f46dfc13621630e01425a3063aa8222c1880b",
	"run/omnetpp/low/rmm":                  "bc3ed99eb81ca036acc69dbcf94985ddbf21e5bb876a4ca3147fb133539d0a1c",
	"run/omnetpp/low/thp":                  "91aa6a8cc439d8005ae7919fca59feef35a4d847b1ab2155301368aa4cb13b29",
	"run/omnetpp/max/anchor":               "396fed1b4ee6add5be56383e8b3a77aa6b80bd67a435e7d3f1051074be4f98a5",
	"run/omnetpp/max/base":                 "84f0c87ed14ba66f7324564202dbc37439f0b84ae832877d0bc5df9a437117b7",
	"run/omnetpp/max/cluster":              "10a3b3bc49c72c4cfd0a76a870728ffde0d3b06ff7b10be9302c0e35734c1815",
	"run/omnetpp/max/cluster-2mb":          "bbb1c8e6cdbf6b54a870c6c75952cb9efdda24bcb95878db2343f2c5152fa414",
	"run/omnetpp/max/colt":                 "e6dcd27f941db756cbb8ae0e203dacf935bb22575de672dc4e2d861245826313",
	"run/omnetpp/max/colt-fa":              "e746837f34a7759dc5da65a38d717f769925621c951ba27ef90a10521c00aed7",
	"run/omnetpp/max/rmm":                  "bb81c777e07e294e03ea261752bd81da5bbbe065911af72dfaa46116637f50cb",
	"run/omnetpp/max/thp":                  "ff8b8e51688fc3aa5491beca7d298b81439f117861db4692558ab430e323f1d3",
	"run/omnetpp/medium/anchor":            "ab158626c0f51ddc172ea2729363729145b61ea48f4e301341ceb595bc04bf52",
	"run/omnetpp/medium/base":              "5f3b21f0f88b98e58542bfb398cdf02673216c5567076ca1b32fd68fcd5a96b7",
	"run/omnetpp/medium/cluster":           "112d62921485abc67ace57571d471c5157babc03f11ab47f6fdeba7e35def278",
	"run/omnetpp/medium/cluster-2mb":       "cd57cb9059b24b91c111b5905b98494956979763efa97d8d13d9188d4471a179",
	"run/omnetpp/medium/colt":              "314236df78f0829148301211eed7b50b98a178692de329f8876882f9aa3eb833",
	"run/omnetpp/medium/colt-fa":           "6425da3401ced4a094c50ef8a23617537fb49405ab2a3dcd2ba47587f3f6278c",
	"run/omnetpp/medium/rmm":               "8555c5a4634b1c925488c1d2e15d320179479b5e8d154b30dd486df8bc21c73e",
	"run/omnetpp/medium/thp":               "bd6abdba935461c9be12924eedfe08f2c3b9773033921866d39bbda3c507c1d1",
	"table/gups/demand/anchor":             "bc47742341c7a221bbb1db9da639a528aed204520c5766af2edd7880d8bd6548",
	"table/gups/demand/base":               "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/demand/thp":                "5bfad46c5da0c0ae07789eda6ac7ddc8267a9d4686fbcf629f4c664dcf21bc5a",
	"table/gups/eager/anchor":              "bc47742341c7a221bbb1db9da639a528aed204520c5766af2edd7880d8bd6548",
	"table/gups/eager/base":                "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/eager/thp":                 "5bfad46c5da0c0ae07789eda6ac7ddc8267a9d4686fbcf629f4c664dcf21bc5a",
	"table/gups/high/anchor":               "52440d261d00ed6e1b1e59161cee958d40ca91bd5cef120eccfe599befc87459",
	"table/gups/high/base":                 "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/high/thp":                  "e2b7fb594c163e792d0addc86420888f9fa9d8b4cf7437b03c012b3963a1346a",
	"table/gups/low/anchor":                "4162d3081dbfc7ff123d91760e0ef7b2af8512d79059ca2fd48f018047fbd2c8",
	"table/gups/low/base":                  "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/low/thp":                   "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/max/anchor":                "bc47742341c7a221bbb1db9da639a528aed204520c5766af2edd7880d8bd6548",
	"table/gups/max/base":                  "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/max/thp":                   "5bfad46c5da0c0ae07789eda6ac7ddc8267a9d4686fbcf629f4c664dcf21bc5a",
	"table/gups/medium/anchor":             "150da55fa8296eea4667d5781ae445a8f68841851e0f0499e0e2363626aedea7",
	"table/gups/medium/base":               "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/gups/medium/thp":                "c85c15a505421afbbb5353be3fcc76f629e8d987aa61252b172428a178a8d0db",
	"table/omnetpp/demand/anchor":          "9e4cdd8390bbd2ac1c98415a2e76efba1c83fded82683e2ac378a1ee575d63bf",
	"table/omnetpp/demand/base":            "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/demand/thp":             "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/eager/anchor":           "9e4cdd8390bbd2ac1c98415a2e76efba1c83fded82683e2ac378a1ee575d63bf",
	"table/omnetpp/eager/base":             "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/eager/thp":              "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/high/anchor":            "615430a82779f52410d37e56ade05f3fa02d02d81dad59ef0d5fa21cf323d122",
	"table/omnetpp/high/base":              "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/high/thp":               "4a039fb1cf98ecec169e8912702883b44885dbf94b4a7478b9e581ed6047626f",
	"table/omnetpp/low/anchor":             "9e4cdd8390bbd2ac1c98415a2e76efba1c83fded82683e2ac378a1ee575d63bf",
	"table/omnetpp/low/base":               "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/low/thp":                "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/max/anchor":             "e291ef7451e6775391fda2e4f0968cb0693617e7073ad076e8cd6ab61c49eaf6",
	"table/omnetpp/max/base":               "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/max/thp":                "4de5b9d4445c2adf82c54ac0b6a59fed5dc372e39ef5af0f9094f959a4776fbc",
	"table/omnetpp/medium/anchor":          "3420d84bf317da57cf27e6d53c4da9e8aaedaf5feb40db65f29f85904b091ceb",
	"table/omnetpp/medium/base":            "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
	"table/omnetpp/medium/thp":             "9409da23c06c98148e923096d61926436b1c1ada546b9985c6802a10b6981221",
}
