// Host-admin example — the paper's third use case: on container-oriented
// distributions (CoreOS, RancherOS) without a package manager, admin
// tools live in a privileged container and Cntr exposes the *host* root
// filesystem to them at /var/lib/cntr.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"cntr/internal/cntr"
	"cntr/internal/container"
	"cntr/internal/namespace"
	"cntr/internal/vfs"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	h := cntr.NewHost()
	// The "host" here is CoreOS-like: a read-only /usr, no tools.
	hostCli := vfs.NewClient(h.RootFS, vfs.Root())
	if err := hostCli.WriteFile("/etc/os-release", []byte("ID=coreos\n"), 0o644); err != nil {
		return err
	}

	// A privileged admin container whose root *is* a toolbox image; the
	// host filesystem is attached through Cntr in host mode.
	toolbox, err := container.BuildImage("toolbox", "v1", container.ImageConfig{
		Env: []string{"PATH=/usr/bin:/bin"},
	}, container.LayerSpec{ID: "toolbox", Files: []container.FileSpec{
		{Path: "/usr/bin/lsof", Size: 3500, Executable: true},
		{Path: "/usr/bin/iotop", Size: 2800, Executable: true},
		{Path: "/bin/sh", Size: 900, Executable: true},
	}})
	if err != nil {
		return err
	}
	c, err := h.Runtime.Create("admin", toolbox, container.CreateOpts{
		Engine: "systemd-nspawn", Privileged: true,
	})
	if err != nil {
		return err
	}
	if err := h.Runtime.Start(c); err != nil {
		return err
	}

	// Attach with no fat container: the session's tools side is the
	// host's root at /, and the admin container's own files are under
	// /var/lib/cntr.
	sess, err := cntr.Attach(h, cntr.Options{Container: "admin"})
	if err != nil {
		return err
	}
	defer sess.Close()
	out, err := sess.Run("cat /etc/os-release")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host os-release via cntr: %s", out)
	out, err = sess.Run("ls /var/lib/cntr/usr/bin")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "toolbox tools: %s", out)

	// The attach keeps the host namespaces distinct from the container's.
	_, err = fmt.Fprintln(w, "namespaces:", sess.Nested.ID(namespace.KindMount) != h.NS.ID(namespace.KindMount))
	return err
}
