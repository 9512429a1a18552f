package rmi

import (
	"crypto/tls"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/gsi"
)

// whoArgs opts into the caller's verified identity; DN is exported so a
// client can try to forge it.
type whoArgs struct{ DN string }

func (a *whoArgs) SetPeer(dn string) { a.DN = dn }

type whoService struct{}

func (whoService) Am(args whoArgs, reply *string) error {
	*reply = args.DN
	return nil
}

// tlsFixture is a server with the Who object on a GSI mutual-TLS
// listener (verifier counted) and on a plain listener.
type tlsFixture struct {
	ca               *gsi.CA
	tlsAddr, tcpAddr string
	verified         atomic.Int64
}

func startTLSServer(t *testing.T) *tlsFixture {
	t.Helper()
	ca, err := gsi.NewCA("rmi test ca")
	if err != nil {
		t.Fatal(err)
	}
	host, err := ca.IssueHost("manager", []string{"localhost"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	f := &tlsFixture{ca: ca}
	s := NewServer(nil)
	if err := s.Register("Who", whoService{}); err != nil {
		t.Fatal(err)
	}
	verify := func(cs tls.ConnectionState) (string, time.Time, error) {
		f.verified.Add(1)
		id, err := gsi.PeerIdentity(cs, ca.Pool())
		if err != nil {
			return "", time.Time{}, err
		}
		return id.DN, id.Expires, nil
	}
	addr, err := s.ListenAndServeTLS("127.0.0.1:0", gsi.ServerTLSConfig(host, ca.Pool()), verify)
	if err != nil {
		t.Fatal(err)
	}
	f.tlsAddr = addr.String()
	if addr, err = s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.tcpAddr = addr.String()
	t.Cleanup(s.Close)
	return f
}

// proxyConfig issues user cn from ca and returns a client TLS config
// presenting a proxy of the given lifetime, trusting f's CA.
func (f *tlsFixture) proxyConfig(t *testing.T, ca *gsi.CA, cn string, lifetime time.Duration) *tls.Config {
	t.Helper()
	user, err := ca.IssueUser("lc-vo", cn, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := gsi.NewProxy(user, lifetime)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gsi.ClientTLSConfig(proxy, f.ca.Pool())
	cfg.ServerName = "localhost"
	return cfg
}

func TestTLSIdentityReachesHandler(t *testing.T) {
	f := startTLSServer(t)
	c, err := Dial(f.tlsAddr, "", WithTLS(f.proxyConfig(t, f.ca, "alice", time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var dn string
	if err := c.Call("Who.Am", whoArgs{}, &dn); err != nil {
		t.Fatal(err)
	}
	if dn != "/O=IPA Grid/OU=lc-vo/CN=alice" {
		t.Fatalf("handler saw DN %q", dn)
	}
}

func TestTLSRejectsUnauthenticatedPeersAtHandshake(t *testing.T) {
	f := startTLSServer(t)
	foreign, err := gsi.NewCA("foreign ca")
	if err != nil {
		t.Fatal(err)
	}
	expired := f.proxyConfig(t, f.ca, "carol", time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	for name, cfg := range map[string]*tls.Config{
		"no certificate": {RootCAs: f.ca.Pool(), ServerName: "localhost", MinVersion: tls.VersionTLS12},
		"foreign CA":     f.proxyConfig(t, foreign, "mallory", time.Hour),
		"expired proxy":  expired,
	} {
		c, err := Dial(f.tlsAddr, "", WithTLS(cfg))
		if err == nil {
			var dn string
			err = c.Call("Who.Am", whoArgs{}, &dn)
			c.Close()
			t.Errorf("%s: connected and called (err %v, DN %q)", name, err, dn)
		}
	}
	if n := f.verified.Load(); n != 0 {
		t.Fatalf("verifier ran %d times for peers the handshake should have refused", n)
	}
}

func TestTLSVerifiesOncePerConnection(t *testing.T) {
	f := startTLSServer(t)
	c, err := Dial(f.tlsAddr, "", WithTLS(f.proxyConfig(t, f.ca, "alice", time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		var dn string
		if err := c.Call("Who.Am", whoArgs{}, &dn); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.verified.Load(); n != 1 {
		t.Fatalf("verifier ran %d times for 100 calls on one connection, want 1", n)
	}
}

func TestForgedPeerIsOverwritten(t *testing.T) {
	f := startTLSServer(t)
	for _, tc := range []struct {
		name, addr, want string
		opts             []Option
	}{
		{"tls", f.tlsAddr, "/O=IPA Grid/OU=lc-vo/CN=alice",
			[]Option{WithTLS(f.proxyConfig(t, f.ca, "alice", time.Hour))}},
		{"plain tcp", f.tcpAddr, "", nil},
	} {
		c, err := Dial(tc.addr, "", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		var dn string
		err = c.Call("Who.Am", whoArgs{DN: "/O=IPA Grid/OU=lc-vo/CN=root"}, &dn)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if dn != tc.want {
			t.Errorf("%s: handler saw DN %q, want %q", tc.name, dn, tc.want)
		}
	}
}

func TestTLSConnectionDropsAtCredentialExpiry(t *testing.T) {
	f := startTLSServer(t)
	// Certificate validity has whole-second precision, so the proxy's
	// NotAfter lands up to a second before now+lifetime.
	const lifetime = 1500 * time.Millisecond
	c, err := Dial(f.tlsAddr, "", WithTLS(f.proxyConfig(t, f.ca, "alice", lifetime)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var dn string
	if err := c.Call("Who.Am", whoArgs{}, &dn); err != nil {
		t.Fatal(err)
	}
	time.Sleep(lifetime + time.Second)
	if err := c.Call("Who.Am", whoArgs{}, &dn); err == nil {
		t.Fatalf("call on a connection whose proxy expired succeeded (DN %q)", dn)
	}
}
