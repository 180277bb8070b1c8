package dqmx_test

// Public-surface tests for the wire: which protocols may use it, the
// WireConfig knobs — what is left of codec selection — and the in-process
// rejection of TCP-only options.

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"dqmx"
)

func TestValidateWireCodec(t *testing.T) {
	for _, c := range []dqmx.Codec{"", dqmx.BinaryCodec} {
		if err := (dqmx.Options{Wire: dqmx.WireConfig{Codec: c}}).Validate(); err != nil {
			t.Errorf("codec %q rejected: %v", c, err)
		}
	}
	if err := (dqmx.Options{Wire: dqmx.WireConfig{Codec: "msgpack"}}).Validate(); err == nil {
		t.Error("unknown codec accepted")
	}
	// The retired codec is refused by name, not as a typo.
	err := (dqmx.Options{Wire: dqmx.WireConfig{Codec: "gob"}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "retired") {
		t.Errorf("codec gob: %v, want the wire-v0-retired error", err)
	}
	if _, err := dqmx.Dial(context.Background(), []string{"127.0.0.1:1"}, dqmx.DialConfig{Codec: "gob"}); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Errorf("Dial with codec gob: %v, want the wire-v0-retired error", err)
	}
}

// TestTCPRefusesSimOnlyProtocols: only the §3 machine has a wire codec, so
// NewTCPNode and Serve build peers for delay-optimal and maekawa and refuse
// every other protocol, naming where it does run, before anything listens:
// the addresses they were given stay free.
func TestTCPRefusesSimOnlyProtocols(t *testing.T) {
	for _, p := range dqmx.Protocols() {
		t.Run(string(p), func(t *testing.T) {
			onWire := p == dqmx.DelayOptimal || p == dqmx.Maekawa
			opts := dqmx.Options{Protocol: p}
			check := func(call string, err error, addrs ...string) {
				t.Helper()
				if onWire {
					if err != nil {
						t.Errorf("%s: %v", call, err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), "Simulate") || !strings.Contains(err.Error(), "NewClusterWith") {
					t.Errorf("%s: %v, want the sim-only error naming Simulate and NewClusterWith", call, err)
				}
				for _, addr := range addrs {
					ln, err := net.Listen("tcp", addr)
					if err != nil {
						t.Errorf("%s left %s bound: %v", call, addr, err)
						continue
					}
					ln.Close()
				}
			}

			peerAddr := freeAddr(t)
			peer, err := dqmx.NewTCPNode(3, 0, peerAddr, nil, opts)
			check("NewTCPNode", err, peerAddr)
			if err == nil {
				peer.Close()
			}

			clientAddr := freeAddr(t)
			srv, err := dqmx.Serve(dqmx.ServeConfig{
				N: 3, PeerListen: peerAddr, ClientListen: clientAddr, Detect: -1, Options: opts,
			})
			check("Serve", err, peerAddr, clientAddr)
			if err == nil {
				srv.Close()
			}
		})
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func TestInprocRejectsWireOptions(t *testing.T) {
	cases := map[string]dqmx.Options{
		"Wire.Codec": {Wire: dqmx.WireConfig{Codec: dqmx.BinaryCodec}},
	}
	for name, opts := range cases {
		if _, err := dqmx.NewClusterWith(3, opts); err == nil {
			t.Errorf("%s accepted on in-process cluster", name)
		}
	}
}

func TestTCPNodeRejectsUnknownCodec(t *testing.T) {
	for _, c := range []dqmx.Codec{"msgpack", "gob"} {
		opts := dqmx.Options{Wire: dqmx.WireConfig{Codec: c}}
		if p, err := dqmx.NewTCPNode(3, 0, "127.0.0.1:0", nil, opts); err == nil {
			p.Close()
			t.Errorf("codec %q accepted", c)
		}
	}
}

// newTCPCluster starts an n-site TCP cluster where site i runs with opts[i],
// using the reserve-then-rebuild address wiring from TestTCPNodes.
func newTCPCluster(t *testing.T, opts []dqmx.Options) []*dqmx.TCPPeer {
	t.Helper()
	n := len(opts)
	tmp := make([]*dqmx.TCPPeer, n)
	addrs := make(map[dqmx.SiteID]string, n)
	for i := 0; i < n; i++ {
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), "127.0.0.1:0", nil, dqmx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tmp[i] = p
		addrs[dqmx.SiteID(i)] = p.Addr()
	}
	for _, p := range tmp {
		p.Close()
	}
	peers := make([]*dqmx.TCPPeer, n)
	for i := 0; i < n; i++ {
		book := make(map[dqmx.SiteID]string)
		for j, a := range addrs {
			if int(j) != i {
				book[j] = a
			}
		}
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book, opts[i])
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.Close()
		}
	})
	return peers
}

func runTCPRounds(t *testing.T, peers []*dqmx.TCPPeer, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		for i, p := range peers {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := p.Node().Acquire(ctx)
			cancel()
			if err != nil {
				t.Fatalf("round %d: site %d: %v", round, i, err)
			}
			p.Node().Release()
		}
	}
}

// TestTCPNodesPinnedCodec: spelling the codec out changes nothing.
func TestTCPNodesPinnedCodec(t *testing.T) {
	for name, c := range map[string]dqmx.Codec{"default": "", "binary": dqmx.BinaryCodec} {
		t.Run(name, func(t *testing.T) {
			opts := dqmx.Options{Wire: dqmx.WireConfig{Codec: c}}
			peers := newTCPCluster(t, []dqmx.Options{opts, opts, opts})
			runTCPRounds(t, peers, 2)
		})
	}
}
