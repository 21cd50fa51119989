package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachecl"
	"cntr/internal/cntrfs"
	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// sums are spans added up per layer: how many, and their inclusive
// virtual and host nanoseconds.
type sums struct {
	calls, virt, host [numLayers]int64
}

func (s sums) sub(o sums) sums {
	for l := range s.calls {
		s.calls[l] -= o.calls[l]
		s.virt[l] -= o.virt[l]
		s.host[l] -= o.host[l]
	}
	return s
}

func (s *sums) add(l layer, virt, host int64) {
	atomic.AddInt64(&s.calls[l], 1)
	atomic.AddInt64(&s.virt[l], virt)
	atomic.AddInt64(&s.host[l], host)
}

// load copies sums that server workers may still be adding to (a
// one-way FORGET frame can be in flight), hence the atomic loads.
func (s *sums) load() sums {
	var out sums
	for l := range s.calls {
		out.calls[l] = atomic.LoadInt64(&s.calls[l])
		out.virt[l] = atomic.LoadInt64(&s.virt[l])
		out.host[l] = atomic.LoadInt64(&s.host[l])
	}
	return out
}

// spanSums is what the traced run keeps of its spans: per layer, the
// spans recorded at the boundary above it, and the subset of them the
// generator entered directly rather than through the layer above (the
// fleet's attr calls into cachecl). Keeping sums instead of a million
// span records is what lets the traced round run on the full-size
// workloads; a layer's self time needs nothing more.
type spanSums struct {
	sums
	direct sums
}

func (s spanSums) sub(o spanSums) spanSums {
	return spanSums{s.sums.sub(o.sums), s.direct.sub(o.direct)}
}

// selfTimes is the per-layer breakdown of one measured phase.
type selfTimes struct {
	virt, host [numLayers]int64
	// computeVirt and computeHost are what is left above the top span:
	// the generator and vfs.Client.
	computeVirt, computeHost int64
}

// self derives each layer's self time — its spans minus the part of
// them its child layer's spans cover — for a phase that took rawVirt
// virtual and rawHost host nanoseconds. chain lists the layers present,
// outermost first. The self times and the compute remainder telescope
// to the phase totals by construction; what can go wrong is a negative
// term, which means a boundary's spans are not nested in its parent's.
func (s spanSums) self(chain []layer, rawVirt, rawHost int64) (selfTimes, error) {
	var out selfTimes
	out.computeVirt, out.computeHost = rawVirt, rawHost
	for i, l := range chain {
		out.virt[l], out.host[l] = s.virt[l], s.host[l]
		if i+1 < len(chain) {
			c := chain[i+1]
			out.virt[l] -= s.virt[c] - s.direct.virt[c]
			out.host[l] -= s.host[c] - s.direct.host[c]
		}
		if out.virt[l] < 0 {
			return out, fmt.Errorf("boundary %s: negative virtual self time %dns (spans below it are not nested in it)",
				layerNames[l], out.virt[l])
		}
		if i == 0 { // the generator enters the top layer's spans, and below it only the direct ones
			out.computeVirt -= s.virt[l]
			out.computeHost -= s.host[l]
		} else {
			out.computeVirt -= s.direct.virt[l]
			out.computeHost -= s.direct.host[l]
		}
	}
	if out.computeVirt < 0 {
		return out, fmt.Errorf("top of stack: spans cover %dns more virtual time than the phase took", -out.computeVirt)
	}
	return out, nil
}

// recorder accumulates spans for one traced stack. Server workers
// record concurrently with the generator, hence the atomics.
type recorder struct {
	clock *sim.Clock
	sums  spanSums
}

func (r *recorder) record(l layer, direct bool, v0 time.Duration, h0 time.Time) {
	v, h := int64(r.clock.Now()-v0), int64(time.Since(h0))
	r.sums.add(l, v, h)
	if direct {
		r.sums.direct.add(l, v, h)
	}
}

// snapshot copies the sums.
func (r *recorder) snapshot() spanSums {
	return spanSums{r.sums.sums.load(), r.sums.direct.load()}
}

// span returns the interceptor for the boundary above layer l.
func (r *recorder) span(l layer) vfs.Interceptor {
	return vfs.InterceptorFunc(func(_ *vfs.OpInfo, next func() error) error {
		v0, h0 := r.clock.Now(), time.Now()
		err := next()
		r.record(l, false, v0, h0)
		return err
	})
}

// spanStore records a span around each call into a blob store.
type spanStore struct {
	inner blobstore.Store
	r     *recorder
	l     layer
}

func (s *spanStore) Put(data []byte) (blobstore.Ref, error) {
	v0, h0 := s.r.clock.Now(), time.Now()
	ref, err := s.inner.Put(data)
	s.r.record(s.l, false, v0, h0)
	return ref, err
}

func (s *spanStore) Get(ref blobstore.Ref) ([]byte, error) {
	v0, h0 := s.r.clock.Now(), time.Now()
	data, err := s.inner.Get(ref)
	s.r.record(s.l, false, v0, h0)
	return data, err
}

func (s *spanStore) Stat(ref blobstore.Ref) (blobstore.Info, error) {
	v0, h0 := s.r.clock.Now(), time.Now()
	info, err := s.inner.Stat(ref)
	s.r.record(s.l, false, v0, h0)
	return info, err
}

func (s *spanStore) Delete(ref blobstore.Ref) error {
	v0, h0 := s.r.clock.Now(), time.Now()
	err := s.inner.Delete(ref)
	s.r.record(s.l, false, v0, h0)
	return err
}

func (s *spanStore) Stats() blobstore.Stats { return s.inner.Stats() }

// ChunkSize forwards blobstore.Chunker; 0 reads as "no preference".
func (s *spanStore) ChunkSize() int {
	if c, ok := s.inner.(blobstore.Chunker); ok {
		return c.ChunkSize()
	}
	return 0
}

// spanTier records the generator's direct calls into the tier client.
type spanTier struct {
	inner attrTier
	r     *recorder
}

func (t spanTier) GetAttr(path string) ([]byte, bool) {
	v0, h0 := t.r.clock.Now(), time.Now()
	val, ok := t.inner.GetAttr(path)
	t.r.record(layerCachecl, true, v0, h0)
	return val, ok
}

func (t spanTier) PutAttr(path string, val []byte) error {
	v0, h0 := t.r.clock.Now(), time.Now()
	err := t.inner.PutAttr(path, val)
	t.r.record(layerCachecl, true, v0, h0)
	return err
}

// A stk is one assembled stack as the rounds drive it.
type stk struct {
	top, backing vfs.FS
	clock        *sim.Clock
	model        *sim.CostModel
	disk         *sim.Disk
	tier         attrTier // nil without a cache service
	close        func()

	// Traced CNTR stacks only: the recorder, the layers present, a
	// reader of every layer's public counters, and the backend store's
	// live logical and physical bytes.
	rec      *recorder
	chain    []layer
	counters func() counters
	stored   func() (logical, physical int64)
}

func nativeStack(cfg stack.Config) *stk {
	n := stack.NewNative(cfg)
	return &stk{top: n.Top, backing: n.Mem, clock: n.Clock, model: n.Model, disk: n.Disk, close: func() {}}
}

func cntrStack(cfg stack.Config) *stk {
	c := stack.NewCntr(cfg)
	s := &stk{top: c.Top, backing: c.Host, clock: c.Clock, model: c.Model, disk: c.Disk, close: c.Close}
	if c.CacheCl != nil {
		s.tier = c.CacheCl
	}
	return s
}

// tracedCntrStack is stack.NewCntr (for the configurations the
// benchmark uses: no BelowCache, no Record, AsyncDepth 0) rebuilt from
// the layers' public constructors with a span interceptor at every
// boundary. Tracing charges no virtual time, so a row's traced total
// must equal its stack.NewCntr total exactly; checkTrace enforces that,
// which is how drift between this assembly and internal/stack shows.
func tracedCntrStack(cfg stack.Config) *stk {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	rec := &recorder{clock: clock}
	s := &stk{clock: clock, model: model, disk: disk, rec: rec}
	s.chain = []layer{layerKernelPC, layerFuse, layerCntrfs, layerHostPC, layerMemfs}

	backend := cfg.Store
	if backend == nil {
		backend = blobstore.NewMem()
	}
	var hostStore blobstore.Store = &spanStore{inner: backend, r: rec, l: layerBlobstore}
	var (
		cacheCl  *cachecl.Client
		origin   *sim.Disk
		chargePC = disk
	)
	if cfg.CacheService != nil {
		cacheCl = cachecl.New(cfg.CacheService, cfg.CacheMountID, clock, model)
		cacheCl.Attach()
		origin = sim.NewDisk(clock, model)
		origin.SetQueueDepth(int(cfg.ReadAhead / 4096))
		tier := cachecl.WrapStore(hostStore, cacheCl, cachecl.StoreOptions{Origin: origin})
		hostStore = &spanStore{inner: tier, r: rec, l: layerCachecl}
		chargePC = nil
		s.tier = spanTier{inner: cacheCl, r: rec}
		s.chain = append(s.chain, layerCachecl)
	}
	s.chain = append(s.chain, layerBlobstore)
	host := memfs.New(memfs.Options{Store: hostStore})
	budget := pagecache.NewMemBudget(cfg.RAM)
	hostPC := pagecache.New(vfs.Chain(host, rec.span(layerMemfs)), clock, model, pagecache.Options{
		KeepCache:    true,
		Writeback:    true,
		DirtyWindow:  cfg.DirtyWindowNative,
		MaxWriteSize: 1 << 20,
		ReadAhead:    cfg.ReadAhead,
		ChargeDisk:   chargePC,
		Budget:       budget,
	})
	cfs := cntrfs.New(vfs.Chain(hostPC, rec.span(layerHostPC)), cntrfs.Options{DedupHardlinks: !cfg.NoDedupHardlinks})
	conn, srv := fuse.Mount(vfs.Chain(cfs, rec.span(layerCntrfs)), clock, model, cfg.Mount)
	ra := cfg.ReadAhead
	if !cfg.Mount.AsyncRead {
		ra = 0
	}
	kernel := pagecache.New(vfs.Chain(conn, rec.span(layerFuse)), clock, model, pagecache.Options{
		KeepCache:    cfg.Mount.KeepCache,
		Writeback:    cfg.Mount.WritebackCache,
		DirtyWindow:  cfg.DirtyWindowFuse,
		MaxWriteSize: int64(cfg.Mount.MaxWrite),
		ReadAhead:    ra,
		FlushOnClose: true,
		Budget:       budget,
	})
	s.top = vfs.Chain(kernel, vfs.NewStats(), rec.span(layerKernelPC))
	s.backing = host
	s.close = func() {
		conn.Unmount()
		if cacheCl != nil {
			cacheCl.Release()
		}
		srv.Wait()
	}
	s.stored = func() (int64, int64) {
		b := backend.Stats()
		return b.LogicalBytes, b.PhysicalBytes
	}
	s.counters = func() counters {
		var c counters
		k, h, f, d, b := kernel.Stats(), hostPC.Stats(), conn.Stats(), disk.Stats(), backend.Stats()
		c[ctrKernelHits], c[ctrKernelMisses] = k.Hits, k.Misses
		c[ctrKernelEvictions], c[ctrKernelFlushedB] = k.Evictions, k.FlushedB
		c[ctrHostHits], c[ctrHostMisses], c[ctrHostEvictions] = h.Hits, h.Misses, h.Evictions
		c[ctrFuseRequests], c[ctrFuseEntryHits], c[ctrFuseEntryMisses] = f.Requests, f.EntryHits, f.EntryMisses
		c[ctrFuseAttrHits], c[ctrFuseBatchFrames], c[ctrFuseSteals] = f.AttrHits, f.BatchFrames, srv.Steals()
		if origin != nil {
			o := origin.Stats()
			d.Reads, d.Writes = d.Reads+o.Reads, d.Writes+o.Writes
			d.BytesRead, d.BytesWrite = d.BytesRead+o.BytesRead, d.BytesWrite+o.BytesWrite
		}
		c[ctrDiskReads], c[ctrDiskWrites] = d.Reads, d.Writes
		c[ctrDiskBytesRead], c[ctrDiskBytesWritten] = d.BytesRead, d.BytesWrite
		c[ctrBlobPuts], c[ctrBlobGets] = b.Puts, b.Gets
		if cacheCl != nil {
			cl := cacheCl.Stats()
			c[ctrClHits], c[ctrClMisses], c[ctrClNetBytes] = cl.Hits, cl.Misses, cl.NetBytes
			c[ctrClMoves], c[ctrClFenced] = cl.Moves, cl.Fenced
		}
		return c
	}
	return s
}
