package pool

type Pool struct{ workers int }

func New(workers int) *Pool { return &Pool{workers: workers} }

func (p *Pool) Run(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
