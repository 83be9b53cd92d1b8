// Filedist reproduces the paper's motivating scenario (Figure 8):
// distributing a 426502-byte file to a growing set of cluster nodes,
// comparing sequential TCP unicast (what a portability-first MPI
// implementation does) against reliable multicast.
//
//	go run ./examples/filedist
package main

import (
	"context"
	"fmt"
	"log"

	"rmcast"
)

func main() {
	const fileSize = 426502 // the paper's file
	fmt.Printf("distributing a %d-byte file\n\n", fileSize)
	fmt.Printf("%-10s %-14s %-18s %s\n", "receivers", "TCP (s)", "ACK multicast (s)", "speedup")
	for _, n := range []int{1, 2, 4, 8, 16, 24, 30} {
		tcp, err := rmcast.Run(context.Background(), rmcast.DefaultSim(n), rmcast.TCPSpec(rmcast.DefaultTCP()), fileSize)
		if err != nil {
			log.Fatal(err)
		}
		mc, err := rmcast.Run(context.Background(), rmcast.DefaultSim(n), rmcast.ProtocolSpec(rmcast.Config{
			Protocol:     rmcast.ProtoACK,
			NumReceivers: n,
			PacketSize:   50000,
			WindowSize:   2,
		}), fileSize)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-14.4f %-18.4f %.1fx\n",
			n, tcp.Elapsed.Seconds(), mc.Elapsed.Seconds(),
			tcp.Elapsed.Seconds()/mc.Elapsed.Seconds())
	}
	fmt.Println("\nTCP cost grows linearly with the group; multicast stays nearly flat.")
}
