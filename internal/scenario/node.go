package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/gossip"
	"repro/internal/shard"
	"repro/internal/transport"
)

// Net is where a started node listens and what it dials, by address. A nil
// func takes the node's own TCP endpoints, so cmd/cpnode passes the zero
// Net; the scenario runner passes its named network with its fault, outage
// and partition gates.
type Net struct {
	// Listen opens a listener. Nil: TCP, with the node's fault profile on
	// its main listener (Listener).
	Listen func(addr string) (transport.Listener, error)
	// Dial dials an uplink: a shard's aggregator, an edge's cloud or shard,
	// a vehicle's edge. Nil: DialFunc, with the node's faults.
	Dial func(addr string) func() (transport.Conn, error)
	// Peer dials a gossip neighbor. Nil: TCP without the node's faults,
	// which model the uplink, not the neighborhood LAN.
	Peer func(addr string) func() (transport.Conn, error)
}

// uplink dials addr through n.Dial, or by default c.DialFunc(addr, extra...).
func (n Net) uplink(c *NodeConfig, addr string, extra ...transport.TCPOption) func() (transport.Conn, error) {
	if n.Dial == nil {
		return c.DialFunc(addr, extra...)
	}
	return n.Dial(addr)
}

// Node is one started node: what its role built, and how to stop it.
type Node struct {
	Config *NodeConfig
	// Addr and GossipAddr are the main and gossip listeners' addresses;
	// What names the desired field a cloud or gossip edge folds toward.
	Addr, GossipAddr, What string

	Cloud  *cloud.Server      // cloud, aggregator
	Shard  *shard.Coordinator // shard
	Edge   *edge.Server       // edge
	Link   *edge.CloudLink    // edge reporting its census direct
	Gossip *gossip.Node       // edge on the gossip data plane
	Fleet  []*FleetVehicle    // vehicles

	stop    chan struct{} // ends the heartbeat and the fleet's sessions
	once    sync.Once
	closers []func() // run in reverse by Stop
	served  chan struct{}
	clients sync.WaitGroup
	failed  chan error // the first vehicle's failure

	corrMu  sync.Mutex
	corrX   float64 // the newest ratio correction the cloud pushed
	hasCorr bool
}

// Start starts the node c configures — listener, serve loop, links — and
// returns once it serves. A vehicles node runs the fleet cpnode's flags
// describe; StartFleet runs any other.
func (c *NodeConfig) Start(net Net) (*Node, error) {
	if c.Role == RoleVehicles {
		return c.StartFleet(FleetSpec{N: c.N, IDBase: c.IDBase, Beta: c.Beta, Tau: c.Tau, Seed: c.Seed}, net)
	}
	n := c.node()
	var err error
	switch c.Role {
	case RoleCloud, RoleAggregator:
		n.Cloud, n.What, err = c.NewCloud()
		if err == nil {
			n.closers = append(n.closers, n.Cloud.Close)
			err = n.listen(net, n.Cloud.Serve)
		}
	case RoleShard:
		var upstream *edge.BatchLink
		n.Shard, upstream, err = c.NewShard(net.uplink(c, c.AggregatorAddr, transport.WithTimeout(time.Minute)))
		if err == nil {
			n.closers = append(n.closers, func() { upstream.Close() }, n.Shard.Close)
			err = n.listen(net, n.Shard.Serve)
		}
	case RoleEdge:
		n.Edge = c.NewEdge()
		n.closers = append(n.closers, n.Edge.Close)
		if err = n.listen(net, n.Edge.Serve); err == nil {
			err = n.startUplink(net)
		}
	default:
		err = fmt.Errorf("scenario: cannot start role %q", c.Role)
	}
	if err != nil {
		n.Stop()
		return nil, err
	}
	return n, nil
}

func (c *NodeConfig) node() *Node {
	return &Node{Config: c, stop: make(chan struct{}), served: make(chan struct{}), failed: make(chan error, 1)}
}

// listen opens the main listener and serves it; Wait returns when serve
// does.
func (n *Node) listen(net Net, serve func(transport.Listener)) error {
	listen := net.Listen
	if listen == nil {
		listen = func(string) (transport.Listener, error) { return n.Config.Listener() }
	}
	l, err := listen(n.Config.Listen)
	if err != nil {
		return err
	}
	n.Addr = l.Addr()
	n.closers = append(n.closers, func() { l.Close() })
	go func() {
		defer close(n.served)
		serve(l)
	}()
	return nil
}

// startUplink connects the edge upstream: a census link to its routed cloud
// or shard and, with a lease TTL, a heartbeat; or on the gossip data plane,
// a neighborhood node that folds locally and escalates digests.
func (n *Node) startUplink(net Net) error {
	c := n.Config
	if c.GossipPeers != "" {
		return n.startGossip(net)
	}
	up, err := ShardRoute(c.CloudAddr, c.Shards, c.Regions, c.ID)
	if err != nil {
		return err
	}
	if n.Link, err = c.NewCloudLink(net.uplink(c, up, transport.WithTimeout(time.Minute))); err != nil {
		return err
	}
	n.closers = append(n.closers, func() { n.Link.Close() })
	// A correction the cloud pushes after a fixed-lag rewind arrives on the
	// link's read goroutine and is adopted at the next round's start.
	n.Link.OnCorrection = func(round int, x float64) {
		n.corrMu.Lock()
		n.corrX, n.hasCorr = x, true
		n.corrMu.Unlock()
		if c.Logf != nil {
			c.Logf("cloud rewound through round %d; corrected x=%.4f", round, x)
		}
	}
	if c.LeaseTTL > 0 {
		hb, err := c.NewHeartbeat(net.uplink(c, up))
		if err != nil {
			return err
		}
		go hb.Run(n.stop)
	}
	return nil
}

func (n *Node) startGossip(net Net) error {
	c := n.Config
	peers, err := ParseGossipPeers(c.GossipPeers)
	if err != nil {
		return err
	}
	listen, peer := net.Listen, net.Peer
	if listen == nil {
		listen = func(addr string) (transport.Listener, error) { return transport.ListenTCP(addr, c.TCPOptions()...) }
	}
	if peer == nil {
		peer = func(addr string) func() (transport.Conn, error) {
			return func() (transport.Conn, error) { return transport.DialTCP(addr, c.TCPOptions()...) }
		}
	}
	gl, err := listen(c.GossipListen)
	if err != nil {
		return err
	}
	n.GossipAddr = gl.Addr()
	n.closers = append(n.closers, func() { gl.Close() })
	peerDial := func(member int) (transport.Conn, error) { return peer(peers[member])() }
	if n.Gossip, n.What, err = c.NewGossipNode(GossipMembers(c.ID, peers), peerDial, net.uplink(c, c.CloudAddr)); err != nil {
		return err
	}
	n.closers = append(n.closers, n.Gossip.Close)
	go n.Gossip.Serve(gl)
	return nil
}

// StartFleet builds the fleet fs describes and runs each vehicle's session
// against the edge at EdgeAddr, reconnecting across edge restarts until
// Stop, or until a vehicle's RetryMax dial attempts all fail.
func (c *NodeConfig) StartFleet(fs FleetSpec, net Net) (*Node, error) {
	n := c.node()
	close(n.served)
	fs.Stop = n.stop
	fleet, err := c.NewFleet(fs)
	if err != nil {
		return nil, err
	}
	n.Fleet = fleet
	dial := net.uplink(c, c.EdgeAddr)
	for _, fv := range fleet {
		dialer, client := c.dialer(dial, int64(fv.Agent.Profile.ID)+0x5eed), fv.Client
		n.clients.Add(1)
		go func() {
			defer n.clients.Done()
			if err := client.RunWithReconnect(dialer); err != nil {
				select {
				case n.failed <- err:
				default:
				}
			}
		}()
	}
	return n, nil
}

// Wait blocks until the node's serve loop returns — for a fleet, until every
// vehicle's session has ended — and returns the first vehicle's failure.
func (n *Node) Wait() error {
	<-n.served
	n.clients.Wait()
	select {
	case err := <-n.failed:
		return err
	default:
		return nil
	}
}

// Stop stops the node without draining it: links, listeners and servers
// close, and the heartbeat and the fleet's sessions end at their next wake
// (Wait waits for the sessions). It is idempotent.
func (n *Node) Stop() {
	n.once.Do(func() {
		close(n.stop)
		for i := len(n.closers) - 1; i >= 0; i-- {
			n.closers[i]()
		}
	})
}

// AwaitVehicles waits until the edge has want vehicles registered, or
// timeout passes.
func (n *Node) AwaitVehicles(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for n.Edge.NumVehicles() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("scenario: only %d/%d vehicles registered at edge %d",
				n.Edge.NumVehicles(), want, n.Config.ID)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// edgeRoundWait bounds an edge's census barrier when the cloud sets no
// shorter round deadline, and floors its wait for the cloud's reply.
const edgeRoundWait = 5 * time.Second

// Round runs edge round t at ratio x, or at a correction the cloud pushed
// since, and returns its census and the next ratio: the cloud's reply, or
// on the gossip data plane the local fold. A failed vehicle round returns
// no census; a failed upstream step returns the census and the round's
// ratio, kept until the upstream heals. The barrier waits out the cloud's
// round deadline, at most edgeRoundWait: a report missing longer would only
// stall a round the cloud completes without it.
func (n *Node) Round(t int, x float64) (census []int, next float64, err error) {
	n.corrMu.Lock()
	if n.hasCorr {
		x, n.hasCorr = n.corrX, false
	}
	n.corrMu.Unlock()
	wait := edgeRoundWait
	if d := n.Config.RoundDeadline; d > 0 && d < wait {
		wait = d
	}
	if census, err = n.Edge.RunRound(t, x, wait); err != nil {
		return nil, x, err
	}
	if n.Gossip != nil {
		next, err = n.Gossip.LocalRound(t, census)
	} else {
		next, err = n.Link.Report(t, census)
	}
	if err != nil {
		return census, x, err
	}
	return census, next, nil
}
